package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/trace"
)

// layer names one boundary of the ledger. Every span is recorded by the
// benchmark's own code around a call into the layer; nothing inside the
// program is instrumented.
type layer uint8

const (
	lyOp            layer = iota // the measured op: Enroll call → return
	lyRemoteE2S                  // client Enroll → client body entry
	lyCoreE2S                    // Instance.Enroll → body entry (host side for remote ops)
	lyBody                       // the benchmark's role body; self time is benchmark code
	lySendAll                    // Ctx.SendAll in a local body
	lyRecvWait                   // Ctx.Recv in a local body
	lyOpRTT                      // one client-side Ctx op of a remote body
	lyHostOp                     // the fabric op the host bridge issues for it
	lyRemoteRelease              // client body return → client Enroll return
	lyCoreRelease                // body return → Instance.Enroll return
	nLayers
	noParent layer = 255
)

var layerNames = [nLayers]string{
	"op", "remote.enroll_to_start", "core.enroll_to_start", "bench.body",
	"rendezvous.sendall", "rendezvous.recv_wait", "remote.op_rtt", "rendezvous.host_op",
	"remote.release", "core.release",
}

func (l layer) String() string {
	if l < nLayers {
		return layerNames[l]
	}
	return "none"
}

// span is one timed boundary of one op. Spans of an op share its ID; the
// parent is the span (layer, parentIdx) of the same op. idx tells apart
// repeated ops inside one body (the n-th Ctx op).
type span struct {
	op         uint64
	start, end int64 // nanoseconds since the recorder's origin
	layer      layer
	parent     layer
	idx        uint16
	parentIdx  uint16
}

// maxSpans is the recorder's capacity; a traced 15 s half of a run keeps
// about 270k spans.
const maxSpans = 1 << 20

// recorder keeps spans in memory until the run ends. A nil *recorder is an
// untraced run.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	// spans lives in an anonymous mapping outside the Go heap. Held on the
	// heap, a few megabytes of spans would raise the GC's heap target, so the
	// traced half of a run would collect less often than the untraced half
	// and the overhead comparison would be skewed in tracing's favour.
	spans   []span
	mem     []byte
	dropped int
	// byPID correlates a traced remote enrollment with its host side: the
	// client registers the enrolling PID before Enroll, the host's target
	// wrapper looks it up. Remote ops cross the wire, so nothing else ties
	// the two halves together.
	byPID sync.Map // ids.PID → *remoteOp
}

func newRecorder() (*recorder, error) {
	mem, err := syscall.Mmap(-1, 0, maxSpans*int(unsafe.Sizeof(span{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("span store: %w", err)
	}
	spans := unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), maxSpans)
	return &recorder{origin: time.Now(), spans: spans[:0], mem: mem}, nil
}

// close releases the span store; the spans must not be used afterwards.
func (r *recorder) close() error { return syscall.Munmap(r.mem) }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.origin)) }

// add keeps spans while there is room and counts the ones it drops; a run
// that dropped any fails its ledger check.
func (r *recorder) add(ss ...span) {
	r.mu.Lock()
	if len(r.spans)+len(ss) <= cap(r.spans) {
		r.spans = append(r.spans, ss...)
	} else {
		r.dropped += len(ss)
	}
	r.mu.Unlock()
}

// remoteOp is the host side's view of a traced remote enrollment.
type remoteOp struct {
	id uint64
	// measured is set for the op under measurement (its host-side
	// enroll/release spans join the ledger); resident role-players only
	// correlate their host ops.
	measured bool
}

func (r *recorder) register(pid ids.PID, op *remoteOp) { r.byPID.Store(pid, op) }
func (r *recorder) unregister(pid ids.PID)             { r.byPID.Delete(pid) }

func (r *recorder) lookup(pid ids.PID) *remoteOp {
	if r == nil {
		return nil
	}
	v, ok := r.byPID.Load(pid)
	if !ok {
		return nil
	}
	return v.(*remoteOp)
}

// writeSpans writes the spans as tab-separated lines (op, layer, idx,
// parent, parent idx, start ns, end ns).
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tlayer\tidx\tparent\tparent_idx\tstart_ns\tend_ns")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%s\t%d\t%d\t%d\n", s.op, s.layer, s.idx, s.parent, s.parentIdx, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// ctxSide selects what a timedCtx records each communication op as.
type ctxSide uint8

const (
	sideLocal  ctxSide = iota // SendAll → rendezvous.sendall, Recv → rendezvous.recv_wait
	sideClient                // every op → remote.op_rtt
	sideHost                  // every op → rendezvous.host_op, child of the client's op_rtt
)

// timedCtx wraps a role body's Ctx and records a span per communication
// op. It times the two ops the star bodies use, SendAll and Recv; the host
// side correlates ops by index, so a body calling any other op would need a
// wrapper for it too. A body runs on one goroutine, so n needs no
// synchronisation.
type timedCtx struct {
	core.Ctx
	rec    *recorder
	op     uint64
	side   ctxSide
	parent layer // lyBody inside a measured op's body, noParent for residents
	n      uint16
}

// timed runs one communication op. local is the layer a local body
// records it as.
func (c *timedCtx) timed(local layer, do func() error) error {
	idx := c.n
	c.n++
	layerOf, parent, pidx := local, c.parent, uint16(0)
	switch c.side {
	case sideClient:
		layerOf = lyOpRTT
	case sideHost:
		layerOf, parent, pidx = lyHostOp, lyOpRTT, idx
	}
	start := c.rec.now()
	err := do()
	c.rec.add(span{op: c.op, start: start, end: c.rec.now(), layer: layerOf, parent: parent, idx: idx, parentIdx: pidx})
	return err
}

func (c *timedCtx) SendAll(tos []ids.RoleRef, v any) error {
	return c.timed(lySendAll, func() error { return c.Ctx.SendAll(tos, v) })
}

func (c *timedCtx) Recv(from ids.RoleRef) (any, error) { return c.RecvTag(from, "") }

func (c *timedCtx) RecvTag(from ids.RoleRef, tag string) (v any, err error) {
	err = c.timed(lyRecvWait, func() error {
		v, err = c.Ctx.RecvTag(from, tag)
		return err
	})
	return v, err
}

// hostFacets is every optional method internal/remote asserts on the Ctx
// its bridge body receives. The host-side wrapper must forward all of them,
// or tracing would silently change abort and trace-ID behaviour.
type hostFacets interface {
	core.Ctx
	TraceID() trace.TraceID
	PerformanceDone() <-chan struct{}
	AbortErr() error
	AbortPerformance(reason string)
}

// hostCtx is the timing wrapper around the host bridge's Ctx.
type hostCtx struct {
	timedCtx
	inner hostFacets
}

func (h *hostCtx) TraceID() trace.TraceID           { return h.inner.TraceID() }
func (h *hostCtx) PerformanceDone() <-chan struct{} { return h.inner.PerformanceDone() }
func (h *hostCtx) AbortErr() error                  { return h.inner.AbortErr() }
func (h *hostCtx) AbortPerformance(reason string)   { h.inner.AbortPerformance(reason) }

var _ hostFacets = (*hostCtx)(nil)

// router is the remote.Target the benchmark's host serves: it routes each
// enrollment to the instance its PID belongs to (one per caller) and, for
// traced enrollments, times the core layer on the host side.
type router struct {
	insts []*core.Instance
	owner map[ids.PID]int // PID → instance; PIDs not listed go to instance 0
	rec   *recorder
}

func (t *router) instance(pid ids.PID) *core.Instance {
	return t.insts[t.owner[pid]]
}

func (t *router) Enroll(ctx context.Context, e core.Enrollment) (core.Result, error) {
	in := t.instance(e.PID)
	ref := t.rec.lookup(e.PID)
	if ref == nil {
		return in.Enroll(ctx, e)
	}
	bridge := e.Body
	var entry, ret int64
	e.Body = func(rc core.Ctx) error {
		entry = t.rec.now()
		if hf, ok := rc.(hostFacets); ok {
			rc = &hostCtx{timedCtx: timedCtx{Ctx: rc, rec: t.rec, op: ref.id, side: sideHost}, inner: hf}
		}
		err := bridge(rc)
		ret = t.rec.now()
		return err
	}
	start := t.rec.now()
	res, err := in.Enroll(ctx, e)
	end := t.rec.now()
	if ref.measured && entry != 0 {
		t.rec.add(
			span{op: ref.id, start: start, end: entry, layer: lyCoreE2S, parent: lyRemoteE2S},
			span{op: ref.id, start: ret, end: end, layer: lyCoreRelease, parent: lyRemoteRelease},
		)
	}
	return res, err
}

// Drain drains every instance.
func (t *router) Drain(ctx context.Context) error {
	for _, in := range t.insts {
		if err := in.Drain(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Definition is the served script (every instance runs the same one).
func (t *router) Definition() core.Definition { return t.insts[0].Definition() }

// PendingOffers forwards the optional facet the host's pending-offer cap
// asserts, so wrapping the instances keeps admission unchanged.
func (t *router) PendingOffers() int {
	n := 0
	for _, in := range t.insts {
		n += in.PendingOffers()
	}
	return n
}

// opTrace records one sampled enrollment: the spans of its Ctx ops and, for
// a measured op, the root and the spans around its body.
type opTrace struct {
	rec        *recorder
	id         uint64
	pid        ids.PID
	side       ctxSide
	registered bool
	entry, ret int64 // body entry and return; entry stays 0 if it never ran
}

// startTrace wraps e's body in a timing Ctx. A client-side op also
// registers its PID so the host side of the same op can join it.
func startTrace(rec *recorder, id uint64, pid ids.PID, e *core.Enrollment, side ctxSide, measured bool) *opTrace {
	t := &opTrace{rec: rec, id: id, pid: pid, side: side}
	body, parent := e.Body, noParent
	if measured {
		parent = lyBody
	}
	e.Body = func(rc core.Ctx) error {
		t.entry = rec.now()
		err := body(&timedCtx{Ctx: rc, rec: rec, op: id, side: side, parent: parent})
		t.ret = rec.now()
		return err
	}
	if side == sideClient {
		rec.register(pid, &remoteOp{id: id, measured: measured})
		t.registered = true
	}
	return t
}

// done ends a resident's trace.
func (t *opTrace) done() {
	if t.registered {
		t.rec.unregister(t.pid)
	}
}

// finish ends a measured op that was called at start and returned at end.
// An op whose body never ran records no ledger.
func (t *opTrace) finish(start, end time.Time) {
	t.done()
	if t.entry == 0 {
		return
	}
	e2s, rel := lyCoreE2S, lyCoreRelease
	if t.side == sideClient {
		e2s, rel = lyRemoteE2S, lyRemoteRelease
	}
	s, e := t.rec.ns(start), t.rec.ns(end)
	t.rec.add(
		span{op: t.id, start: s, end: e, layer: lyOp, parent: noParent},
		span{op: t.id, start: s, end: t.entry, layer: e2s, parent: lyOp},
		span{op: t.id, start: t.entry, end: t.ret, layer: lyBody, parent: lyOp},
		span{op: t.id, start: t.ret, end: e, layer: rel, parent: lyOp},
	)
}
