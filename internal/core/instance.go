package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/match"
	"github.com/scriptabs/goscript/internal/metrics"
	"github.com/scriptabs/goscript/internal/rendezvous"
	"github.com/scriptabs/goscript/internal/trace"
)

// Always-on performance lifecycle counters (see internal/metrics).
var (
	perfStartedTotal   = metrics.Get(metrics.PerformancesStarted)
	perfCompletedTotal = metrics.Get(metrics.PerformancesCompleted)
	perfAbortedTotal   = metrics.Get(metrics.PerformancesAborted)
)

// Enrollment is a request by a process to play a role in an instance.
type Enrollment struct {
	// PID is the enrolling process's identity. Required.
	PID ids.PID
	// Role is the role (or family member) to play.
	Role ids.RoleRef
	// Args are the actual data parameters bound to the role's formal
	// parameters at enrollment time.
	Args []any
	// With are partner constraints: for each named role, the processes
	// acceptable in it (partners-named enrollment). Nil or empty for
	// partners-unnamed enrollment; a multi-element set expresses
	// "either A or B"; naming only some roles is partial naming.
	With map[ids.RoleRef]ids.PIDSet
	// Deadline, when non-zero, bounds the performance this enrollment takes
	// part in: if the performance has not terminated by the deadline, the
	// runtime aborts it (blocked co-performers unwind with an *AbortError
	// wrapping ErrPerformanceAborted). The deadline arms only once the offer
	// is assigned to a performance; a pending offer is bounded by its
	// context instead. See also WithPerformanceDeadline for a per-instance
	// bound on every performance.
	Deadline time.Time
	// Body, when non-nil, overrides the definition's body for this
	// enrollment. The paper makes a role body "a logical continuation of the
	// enrolling process"; Body lets the enrolling process actually supply
	// that continuation. The remote host (internal/remote) uses it to bridge
	// a network enroller: the override proxies Ctx operations to the client
	// process, where the real body runs.
	Body RoleBody
	// TraceID, when non-zero, is a trace ID minted by the enrolling side
	// (typically a remote client whose own sampler chose to trace the call).
	// If this enrollment initiates a performance, the performance adopts the
	// ID instead of consulting the instance's sampler, so both sides of the
	// wire record events on the same timeline.
	TraceID trace.TraceID
}

// Result reports a completed enrollment.
type Result struct {
	// Performance is the 1-based performance number the process took part in.
	Performance int
	// Role is the role that was played.
	Role ids.RoleRef
	// Values are the result (out) parameters set by the role body.
	Values []any
	// TraceID is the performance's trace ID when it was sampled for tracing,
	// zero otherwise.
	TraceID trace.TraceID
}

// Option configures an Instance.
type Option func(*Instance)

// WithTracer attaches a tracer that observes the instance's events.
// Events are recorded while the instance lock is held, so heavyweight sinks
// should be wrapped in a trace.Async to keep the critical section short.
func WithTracer(t trace.Tracer) Option {
	return func(in *Instance) {
		if t != nil {
			in.tracer = t
			_, in.nopTrace = t.(trace.Nop)
		}
	}
}

// WithSampler installs a trace sampler: at each performance's initiation the
// sampler decides, once, whether that performance's events are recorded. A
// sampled performance gets a trace ID stamped on all its events (and echoed
// in Result.TraceID); an unsampled one records nothing, so a 0.1% sampler
// makes tracing affordable at full load. An enrollment carrying its own
// TraceID (a remote client that already sampled the call) bypasses the
// sampler — the performance is traced under the adopted ID. Without a
// sampler every performance is traced, preserving the record-everything
// behavior tests rely on.
func WithSampler(s trace.Sampler) Option {
	return func(in *Instance) { in.sampler = s }
}

// WithFairness selects how contention among enrollments is resolved:
// match.FIFO (order of arrival, as in Ada) or match.Arbitrary with a seed
// (no fairness, as in CSP). The default is FIFO.
func WithFairness(f match.Fairness, seed int64) Option {
	return func(in *Instance) {
		in.fairness = f
		in.seed = seed
	}
}

// WithPerformanceDeadline bounds every performance of the instance: a
// performance that has not terminated within d of starting is aborted — the
// paper's embeddings block forever on a partner that never communicates,
// and this is the runtime's answer to that open problem. Only the wedged
// performance is reclaimed: its blocked co-performers unwind with an
// *AbortError (wrapping ErrPerformanceAborted) naming the culprit role, and
// the instance then accepts the next cast. The timer is armed lazily, when
// a performance actually starts; d <= 0 disables the bound. Individual
// enrollments can tighten the bound with Enrollment.Deadline.
func WithPerformanceDeadline(d time.Duration) Option {
	return func(in *Instance) {
		if d > 0 {
			in.perfDeadline = d
		}
	}
}

// Instance is one runtime instance of a script definition. Create several
// instances for concurrent independent performances of the same generic
// script (or use a Pool in the root package, which multiplexes enrollments
// across instances). An Instance must be closed when no longer needed.
//
// Scheduling is event-driven: the goroutine whose action changes the
// coordination state (an enrollment arriving, a role body finishing, an
// offer being withdrawn) runs the coordinator step itself while it holds the
// lock, and wakes exactly the enrollers whose state changed — an assigned
// enroller through its own wakeup channel, released holders through the
// performance's done channel. There is no broadcast and no coordinator
// goroutine (the paper's requirement that a script needs no extra process).
type Instance struct {
	def      Definition
	tracer   trace.Tracer
	nopTrace bool
	// sampler, when non-nil, decides per performance (at initiation) whether
	// its events are recorded; traces is the bounded table of live traced
	// performances (trace.DefaultMaxLiveTraces; when full, newly sampled
	// performances run untraced).
	sampler  trace.Sampler
	traces   *trace.Table
	fairness match.Fairness
	seed     int64
	// perfDeadline bounds every performance (WithPerformanceDeadline);
	// 0 = unbounded.
	perfDeadline time.Duration
	// faults, when non-nil, injects latency, dropped wakeups, and spurious
	// cancellations (WithFaultInjection; see internal/chaos).
	faults FaultInjector

	// critSets are the effective critical sets: the declared ones, or the
	// statically-known role universe when none were declared. Used for the
	// cheap match-viability precheck.
	critSets []ids.RoleSet

	// load counts enrollments in flight (pending, playing, or held), for
	// Pool dispatch. Kept outside mu so Load() never contends.
	load atomic.Int64
	// pendingCount mirrors len(pending) in an atomic, so admission control
	// (the remote host sheds offers when the backlog is deep) can consult it
	// on every ENROLL without contending with the scheduler.
	pendingCount atomic.Int64

	mu       sync.Mutex
	closed   bool
	closedCh chan struct{} // closed by Close; wakes all waiters
	// draining is set by Drain: no new offers are admitted (they fail with
	// ErrDraining), the in-flight performance runs to completion, then the
	// instance closes.
	draining bool
	drainCh  chan struct{} // closed when draining begins; wakes pending enrollers
	// idleCh, when non-nil, is closed (and nilled) the moment a draining
	// instance becomes idle (no active performance, no pending offers);
	// Drain waiters allocate it lazily.
	idleCh    chan struct{}
	nextOffer uint64
	pending   []*enrollState
	active    *performance
	perfCount int

	// pendingByRole counts pending offers per role, maintained on every
	// pending-set mutation; the delayed-initiation matcher consults it to
	// skip match.Find when no critical set can possibly be covered.
	pendingByRole map[ids.RoleRef]int
	// offersDirty records whether the pending set changed since the last
	// failed match attempt; when false, re-running match.Find is pointless
	// (match existence depends only on the offer set).
	offersDirty bool
	// Admission-order cache (immediate initiation): valid while the pending
	// set is unchanged and the performance number matches (Arbitrary
	// fairness shuffles once per performance).
	admitOrder []*enrollState
	admitDirty bool
	admitPerf  int
}

type enrollPhase int

const (
	phasePending enrollPhase = iota + 1
	phaseAssigned
	phaseWithdrawn
)

type enrollState struct {
	offer    match.Offer
	args     []any
	ctx      context.Context
	deadline time.Time     // Enrollment.Deadline; zero = none
	traceID  trace.TraceID // Enrollment.TraceID; zero = none
	phase    enrollPhase
	perf     *performance
	rc       *RoleCtx
	// wake receives exactly one signal, when the offer is assigned to a
	// performance. Withdrawal and instance closure are observed through
	// ctx.Done and the instance's closedCh instead.
	wake chan struct{}
}

// performance is one collective activation of the instance's roles.
type performance struct {
	number   int
	fabric   *rendezvous.Fabric
	ctx      context.Context
	cancel   context.CancelFunc
	assigned match.Assignment
	finished ids.RoleSet
	absent   ids.RoleSet
	// membershipClosed is set when the filled roles cover a critical set
	// (immediate initiation) or at the atomic match (delayed initiation).
	membershipClosed bool
	done             bool
	// doneCh is closed when the performance ends; delayed-termination
	// holders wait on it.
	doneCh chan struct{}
	// openMax tracks, per open-ended family, the largest enrolled index.
	openMax map[string]int
	// deadline is the earliest abort deadline in force (instance-level
	// performance deadline or an assigned enrollment's deadline); zero =
	// unbounded. timer fires the abort; it is stopped on normal termination.
	deadline time.Time
	timer    *time.Timer
	// abortErr is non-nil once the runtime aborted the performance; it is
	// the error blocked co-performers unwind with.
	abortErr *AbortError
	// traceID and sampled are the initiation-time sampling verdict: sampled
	// gates whether per-performance events are recorded at all, traceID (when
	// non-zero) is stamped on each of them. See Instance.samplePerfLocked.
	traceID trace.TraceID
	sampled bool
}

// fabricPool recycles rendezvous fabrics across performances: a performance
// finishes only after every role body has returned, so its fabric is
// quiescent and can be reset for the next performance of any instance.
var fabricPool = sync.Pool{New: func() any { return rendezvous.New() }}

// NewInstance creates an instance of def.
func NewInstance(def Definition, opts ...Option) *Instance {
	in := &Instance{
		def:           def,
		tracer:        trace.Nop{},
		nopTrace:      true,
		fairness:      match.FIFO,
		closedCh:      make(chan struct{}),
		drainCh:       make(chan struct{}),
		pendingByRole: make(map[ids.RoleRef]int),
	}
	in.critSets = def.criticalSets
	if len(in.critSets) == 0 {
		in.critSets = []ids.RoleSet{def.closedRoles()}
	}
	for _, o := range opts {
		o(in)
	}
	in.traces = trace.NewTable(0)
	return in
}

// Definition returns the instance's script definition.
func (in *Instance) Definition() Definition { return in.def }

// Performances returns the number of performances started so far.
func (in *Instance) Performances() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.perfCount
}

// PendingEnrollments returns the number of enrollment offers waiting to be
// matched or admitted.
func (in *Instance) PendingEnrollments() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.pending)
}

// Load returns the number of enrollments currently in flight — pending,
// playing a role, or held for delayed termination. It is a dispatch hint
// (used by the root package's Pool) and reads a single atomic counter, so it
// never contends with the scheduler.
func (in *Instance) Load() int {
	return int(in.load.Load())
}

// PendingOffers returns the number of enrollment offers waiting to be
// matched or admitted, like PendingEnrollments, but from a single atomic
// counter: an admission-control layer (the remote host's per-instance
// pending-offer cap) consults it on every offer, and must never contend
// with the scheduler to decide whether to shed.
func (in *Instance) PendingOffers() int {
	return int(in.pendingCount.Load())
}

// Close aborts the instance: pending enrollments fail with ErrClosed, and
// blocked communications of a running performance fail so role bodies can
// unwind. A role whose body already finished when Close lands keeps its
// results and reports no error — only work interrupted before finishing
// surfaces the closure. Close is idempotent. Prefer Drain for a shutdown
// that lets in-flight performances complete.
func (in *Instance) Close() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return
	}
	in.closed = true
	if in.active != nil {
		if in.active.timer != nil {
			in.active.timer.Stop()
			in.active.timer = nil
		}
		in.active.cancel()
		in.active.fabric.Close()
	}
	close(in.closedCh)
}

// Closed reports whether the instance has been closed (by Close or by a
// completed Drain).
func (in *Instance) Closed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.closed
}

// Draining reports whether the instance is draining (or has finished
// draining and closed).
func (in *Instance) Draining() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.draining
}

// Drain shuts the instance down gracefully: from the moment Drain is
// called, new offers are rejected and pending offers released (both with
// ErrDraining), while the in-flight performance — and its held enrollers —
// run to completion; once the instance is idle it is closed and Drain
// returns nil. If the active performance still has open membership, its
// membership is frozen (unfilled roles become absent) so it cannot wait
// forever for joiners that will now never be admitted.
//
// If ctx ends first, Drain returns ctx's error and leaves the instance
// draining but open: in-flight work keeps running, offers keep failing with
// ErrDraining, and the caller may re-Drain, Close, or rely on a performance
// deadline to reclaim wedged work. Drain is idempotent and may be called
// concurrently; Drain on a closed instance returns nil.
func (in *Instance) Drain(ctx context.Context) error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil
	}
	if !in.draining {
		in.draining = true
		in.record(trace.Event{Kind: trace.KindDrain, Script: in.def.name})
		close(in.drainCh)
		if in.active != nil && !in.active.membershipClosed {
			in.closeMembershipLocked(in.active)
		}
	}
	for {
		if in.closed {
			in.mu.Unlock()
			return nil
		}
		if in.active == nil && len(in.pending) == 0 {
			in.closed = true
			close(in.closedCh)
			in.mu.Unlock()
			return nil
		}
		if in.idleCh == nil {
			in.idleCh = make(chan struct{})
		}
		idle := in.idleCh
		in.mu.Unlock()
		select {
		case <-idle:
		case <-in.closedCh:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
		in.mu.Lock()
	}
}

// notifyDrainLocked wakes Drain waiters when a draining instance reaches
// the idle state (no active performance, no pending offers).
func (in *Instance) notifyDrainLocked() {
	if in.draining && in.active == nil && len(in.pending) == 0 && in.idleCh != nil {
		close(in.idleCh)
		in.idleCh = nil
	}
}

// Enroll offers to play e.Role in this instance, blocks until a performance
// admits the offer, runs the role body in the calling goroutine, and
// returns when the process is released (at body completion under immediate
// termination; after the whole performance under delayed termination).
//
// The returned Result carries the role's out parameters. A role-body error
// is wrapped in *RoleError. Cancelling ctx withdraws a pending offer,
// interrupts the role's communications once it is running, or — under
// delayed termination — releases a finished role early instead of holding
// it until the whole performance ends (the enrollment then reports ctx's
// error alongside the role's results).
func (in *Instance) Enroll(ctx context.Context, e Enrollment) (Result, error) {
	if e.PID == ids.NoPID {
		return Result{}, fmt.Errorf("script %s: enrollment has empty PID", in.def.name)
	}
	if err := in.def.checkRole(e.Role); err != nil {
		return Result{}, err
	}
	for r := range e.With {
		if err := in.def.checkRole(r); err != nil {
			return Result{}, fmt.Errorf("partner constraint: %w", err)
		}
	}
	in.load.Add(1)
	defer in.load.Add(-1)

	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return Result{}, ErrClosed
	}
	if in.draining {
		in.mu.Unlock()
		return Result{}, ErrDraining
	}
	in.nextOffer++
	st := &enrollState{
		offer:    match.Offer{ID: in.nextOffer, PID: e.PID, Role: e.Role, With: clonePartners(e.With)},
		args:     append([]any(nil), e.Args...),
		ctx:      ctx,
		deadline: e.Deadline,
		traceID:  e.TraceID,
		phase:    phasePending,
		wake:     make(chan struct{}, 1),
	}
	in.addPendingLocked(st)
	// Offer-time events predate any performance, so they cannot be sampled
	// per-performance; with a sampler installed the tracer sees only the
	// events of sampled performances, or the unconditional offer stream
	// would dominate event volume at production sampling rates.
	if in.sampler == nil {
		in.record(trace.Event{Kind: trace.KindEnroll, Script: in.def.name, Role: e.Role, PID: e.PID})
	}

	in.advanceLocked()
	for st.phase == phasePending {
		in.mu.Unlock()
		select {
		case <-st.wake:
		case <-ctx.Done():
		case <-in.drainCh:
		case <-in.closedCh:
		}
		in.mu.Lock()
		if st.phase != phasePending {
			break // assigned while we were waking up; assignment wins
		}
		if in.draining {
			in.removePendingLocked(st)
			in.mu.Unlock()
			return Result{}, ErrDraining
		}
		if in.closed {
			in.removePendingLocked(st)
			in.mu.Unlock()
			return Result{}, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			in.removePendingLocked(st)
			in.mu.Unlock()
			return Result{}, err
		}
	}
	perf, rc := st.perf, st.rc
	in.mu.Unlock()

	body := in.def.bodyFor(e.Role)
	if e.Body != nil {
		body = e.Body
	}
	bodyErr := runBody(body, rc)

	in.mu.Lock()
	in.recordPerf(perf, trace.Event{
		Kind: trace.KindFinish, Script: in.def.name,
		Performance: perf.number, Role: e.Role, PID: e.PID,
	})
	perf.finished.Add(e.Role)
	if perf.fabric != nil {
		perf.fabric.Terminate(addrOf(e.Role))
	}
	if perf.membershipClosed && perf.finished.Len() == len(perf.assigned) {
		in.finishPerformanceLocked(perf)
		in.advanceLocked() // the instance is free: let the next cast form
	}
	var heldErr error
	if in.def.termination == DelayedTermination {
		for !perf.done && !in.closed {
			if err := ctx.Err(); err != nil {
				heldErr = err // released-but-held role interrupted by its enroller
				break
			}
			in.mu.Unlock()
			select {
			case <-perf.doneCh:
			case <-in.closedCh:
			case <-ctx.Done():
			}
			in.mu.Lock()
		}
	}
	in.recordPerf(perf, trace.Event{
		Kind: trace.KindRelease, Script: in.def.name,
		Performance: perf.number, Role: e.Role, PID: e.PID,
	})
	abortErr := perf.abortErr
	in.mu.Unlock()

	res := Result{Performance: perf.number, Role: e.Role, Values: rc.results, TraceID: perf.traceID}
	switch {
	case bodyErr != nil && abortErr != nil && errors.Is(bodyErr, ErrPerformanceAborted):
		// The body unwound because the runtime aborted the performance;
		// surface the abort itself (with its culprit), not a RoleError.
		return res, abortErr
	case bodyErr != nil:
		return res, &RoleError{Script: in.def.name, Role: e.Role, Err: bodyErr}
	case heldErr != nil:
		return res, heldErr
	default:
		// The body finished its work: the enrollment succeeded, even if the
		// instance was closed or the performance aborted while the role was
		// held for delayed termination — only abort-before-finish surfaces
		// an error.
		return res, nil
	}
}

// runBody executes the role body, converting a panic into an error so a
// buggy role cannot wedge the whole instance.
func runBody(body RoleBody, rc *RoleCtx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("role body panicked: %v", r)
		}
	}()
	return body(rc)
}

func clonePartners(w map[ids.RoleRef]ids.PIDSet) map[ids.RoleRef]ids.PIDSet {
	if len(w) == 0 {
		return nil
	}
	out := make(map[ids.RoleRef]ids.PIDSet, len(w))
	for r, s := range w {
		if s == nil {
			out[r] = nil
			continue
		}
		cs := make(ids.PIDSet, len(s))
		for p := range s {
			cs[p] = struct{}{}
		}
		out[r] = cs
	}
	return out
}

// advanceLocked is the coordinator step, run under the lock by whichever
// goroutine changed the coordination state: start a performance if one can
// start, and admit joiners under immediate initiation. It is idempotent.
// The paper's goal that a script needs no additional process is met: there
// is no coordinator goroutine, and — unlike a broadcast scheme — only the
// enrollers that are actually assigned are woken.
func (in *Instance) advanceLocked() {
	for {
		if in.closed || in.draining {
			return
		}
		before := len(in.pending)
		if in.active == nil {
			switch in.def.initiation {
			case ImmediateInitiation:
				if before == 0 {
					return
				}
				in.startPerformanceLocked(nil)
			default: // DelayedInitiation
				if !in.tryMatchLocked() {
					return
				}
			}
		}
		if in.active != nil && in.def.initiation == ImmediateInitiation && !in.active.membershipClosed {
			in.admitLocked(in.active)
		}
		if in.active != nil {
			return
		}
		// The performance completed within this step (every member had
		// already finished when the closing cover arrived, or an empty
		// critical set closed an empty cast); loop so the next one can form
		// — but only if this step consumed offers, otherwise looping could
		// spin without ever letting withdrawing enrollers clean up.
		if len(in.pending) == before {
			return
		}
	}
}

// tryMatchLocked runs the delayed-initiation matcher incrementally: only
// when the offer set changed since the last failed attempt (withdrawals and
// spurious wakeups cannot create a match), and only when every role of some
// critical set has at least one pending offer (a cheap, allocation-free
// necessary condition maintained in pendingByRole). It reports whether a
// performance was started.
func (in *Instance) tryMatchLocked() bool {
	if !in.offersDirty {
		return false
	}
	in.offersDirty = false
	if !in.matchViableLocked() {
		return false
	}
	offers := make([]match.Offer, 0, len(in.pending))
	for _, st := range in.pending {
		if st.ctx.Err() != nil {
			continue // being withdrawn by its enroller
		}
		offers = append(offers, st.offer)
	}
	p := in.def.matchProblem(offers, in.fairness, in.seed+int64(in.perfCount))
	asg, ok := match.Find(p)
	if !ok {
		return false
	}
	in.startPerformanceLocked(asg)
	return true
}

// matchViableLocked reports whether some critical set has every role covered
// by at least one pending offer — a necessary condition for match.Find to
// succeed, checked without allocating.
func (in *Instance) matchViableLocked() bool {
	for _, cs := range in.critSets {
		ok := true
		for r := range cs {
			if in.pendingByRole[r] == 0 {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// startPerformanceLocked opens performance number perfCount+1. asg is the
// atomic assignment for delayed initiation (membership closes right away),
// or nil for immediate initiation (membership stays open for admission).
func (in *Instance) startPerformanceLocked(asg match.Assignment) {
	in.perfCount++
	ctx, cancel := context.WithCancel(context.Background())
	fab := fabricPool.Get().(*rendezvous.Fabric)
	if ff, ok := in.faults.(rendezvous.FastFaults); ok && in.faults != nil {
		// The fault injector also covers fast-lane handoffs (chaos soak):
		// attach it for this performance; Reset detaches it.
		fab.SetFastFaults(ff)
	}
	p := &performance{
		number:   in.perfCount,
		fabric:   fab,
		ctx:      ctx,
		cancel:   cancel,
		assigned: make(match.Assignment),
		finished: ids.NewRoleSet(),
		absent:   ids.NewRoleSet(),
		doneCh:   make(chan struct{}),
		openMax:  make(map[string]int),
	}
	in.active = p
	perfStartedTotal.Inc()
	in.samplePerfLocked(p, asg)
	in.recordPerf(p, trace.Event{Kind: trace.KindPerfStart, Script: in.def.name, Performance: p.number})
	if in.perfDeadline > 0 {
		in.armDeadlineLocked(p, time.Now().Add(in.perfDeadline))
	}
	for _, r := range rolesSorted(asg) {
		in.assignLocked(p, asg[r])
	}
	if asg != nil {
		in.closeMembershipLocked(p)
	}
}

// samplePerfLocked makes the once-per-performance tracing decision at
// initiation. An enrollment that arrived with its own trace ID wins (the
// remote side already sampled the call and both ends must share a timeline):
// for delayed initiation only the matched offers are consulted, for immediate
// initiation any pending offer (the cast is not yet known). Otherwise the
// instance's sampler decides; with no sampler every performance is traced
// and, when a real tracer is attached, gets a freshly minted ID so even
// record-everything setups produce stitchable timelines. A sampled ID is
// retained in the bounded live-trace table; when the table is full the
// performance runs untraced.
func (in *Instance) samplePerfLocked(p *performance, asg match.Assignment) {
	var adopted trace.TraceID
	var member map[uint64]bool
	if asg != nil {
		member = make(map[uint64]bool, len(asg))
		for _, o := range asg {
			member[o.ID] = true
		}
	}
	for _, st := range in.pending {
		if st.traceID == 0 || (member != nil && !member[st.offer.ID]) {
			continue
		}
		adopted = st.traceID
		break
	}
	switch {
	case adopted != 0:
		p.traceID, p.sampled = adopted, true
	case in.sampler != nil:
		p.traceID, p.sampled = in.sampler.Sample()
	case in.nopTrace:
		p.sampled = true // record() discards everything anyway
	default:
		p.traceID, p.sampled = trace.NextID(), true
	}
	if p.traceID != 0 && !in.traces.Add(trace.PerfContext{
		ID: p.traceID, Script: in.def.name, Performance: p.number,
	}) {
		p.traceID, p.sampled = 0, false
	}
}

// TraceContexts returns a snapshot of the live traced performances.
func (in *Instance) TraceContexts() []trace.PerfContext {
	return in.traces.Contexts()
}

// armDeadlineLocked arms (or tightens) performance p's abort timer to fire
// at t; a zero t or a t no earlier than the deadline already in force is a
// no-op. The timer is lazily armed: an instance without deadlines never
// allocates one.
func (in *Instance) armDeadlineLocked(p *performance, t time.Time) {
	if t.IsZero() || p.done {
		return
	}
	if !p.deadline.IsZero() && !t.Before(p.deadline) {
		return
	}
	p.deadline = t
	if p.timer != nil {
		p.timer.Stop()
	}
	p.timer = time.AfterFunc(time.Until(t), func() { in.deadlineFired(p) })
}

// deadlineFired is the performance-deadline timer callback: it aborts p if
// it is still running, then lets the next cast form.
func (in *Instance) deadlineFired(p *performance) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if p.done || in.closed {
		return
	}
	in.abortPerformanceLocked(p, "deadline exceeded")
	in.advanceLocked()
}

// abortPerformanceLocked reclaims a wedged performance: it picks the
// culprit role, fails every blocked and future communication of the
// performance's fabric with an *AbortError, and ends the performance so the
// instance can accept the next cast. The culprit is the first (in role
// order) assigned role that has neither finished nor is blocked inside the
// fabric waiting to communicate — the paper's "partner that never
// communicates"; if every unfinished role is blocked communicating (a
// genuine cycle), the first unfinished role is blamed. The waiting set is
// taken as one fabric snapshot (Fabric.WaitingSnapshot) so the attribution
// reflects a state the fabric was actually in, rather than a series of
// per-role probes that racing commits could interleave with.
func (in *Instance) abortPerformanceLocked(p *performance, reason string) {
	in.abortAsLocked(p, ids.RoleRef{}, reason)
}

// abortAsLocked aborts performance p blaming culprit; a zero culprit means
// "attribute it" (see abortPerformanceLocked). The remote host passes an
// explicit culprit when it *knows* which role's enroller disconnected.
//
// Unlike Close, which takes the whole instance down, an abort is scoped to
// one performance. The fabric is not recycled: a wedged role body may call
// into it arbitrarily late, and it keeps answering with the abort reason.
func (in *Instance) abortAsLocked(p *performance, culprit ids.RoleRef, reason string) {
	if p.done {
		return
	}
	if culprit.Name == "" {
		waiting := p.fabric.WaitingSnapshot()
		parked := make(map[rendezvous.Addr]bool, len(waiting))
		for _, a := range waiting {
			parked[a] = true
		}
		unfinished := make([]ids.RoleRef, 0, len(p.assigned))
		for _, r := range p.assigned.Roles().Sorted() {
			if !p.finished.Contains(r) {
				unfinished = append(unfinished, r)
			}
		}
		for _, r := range unfinished {
			if !parked[addrOf(r)] {
				culprit = r
				break
			}
		}
		if culprit.Name == "" && len(unfinished) > 0 {
			culprit = unfinished[0]
		}
	}
	p.abortErr = &AbortError{
		Script:      in.def.name,
		Performance: p.number,
		Culprit:     culprit,
		Reason:      reason,
	}
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	p.done = true
	p.cancel()
	p.fabric.Abort(p.abortErr)
	perfAbortedTotal.Inc()
	in.recordPerf(p, trace.Event{
		Kind: trace.KindAbort, Script: in.def.name,
		Performance: p.number, Role: culprit, Detail: reason,
	})
	if p.traceID != 0 {
		in.traces.Remove(p.traceID)
	}
	if in.active == p {
		in.active = nil
	}
	close(p.doneCh)
	in.notifyDrainLocked()
}

// rolesSorted returns asg's roles in deterministic order.
func rolesSorted(asg match.Assignment) []ids.RoleRef {
	return asg.Roles().Sorted()
}

// assignLocked binds offer's enrollment into performance p and wakes exactly
// that enroller.
func (in *Instance) assignLocked(p *performance, offer match.Offer) {
	st := in.takePendingLocked(offer.ID)
	if st == nil {
		return // withdrawn concurrently; cannot happen for freshly matched offers
	}
	r := offer.Role
	p.assigned[r] = offer
	if decl := in.def.decls[r.Name]; decl.family && decl.size == 0 && r.Index > p.openMax[r.Name] {
		p.openMax[r.Name] = r.Index
	}
	st.phase = phaseAssigned
	st.perf = p
	st.rc = &RoleCtx{
		inst: in,
		perf: p,
		role: r,
		pid:  offer.PID,
		ctx:  st.ctx,
		args: st.args,
	}
	in.armDeadlineLocked(p, st.deadline)
	woken := false
	if fi := in.faults; fi != nil {
		if d := fi.WakeDelay(); d > 0 {
			// Injected fault: drop the inline wakeup and redeliver it late.
			// The enroller sleeps until the redelivery (or its context/the
			// instance closing); a correct scheduler tolerates the gap.
			w := st.wake
			time.AfterFunc(d, func() {
				select {
				case w <- struct{}{}:
				default:
				}
			})
			woken = true
		}
	}
	if !woken {
		select {
		case st.wake <- struct{}{}:
		default: // already signalled; the phase check makes a second signal moot
		}
	}
	in.recordPerf(p, trace.Event{
		Kind: trace.KindStart, Script: in.def.name,
		Performance: p.number, Role: r, PID: offer.PID,
	})
}

// admitLocked runs one admission pass for an open-membership performance
// (immediate initiation): every pending offer that can join does, in
// fairness order; then, if the filled roles cover a critical set,
// membership closes ("admit then close").
func (in *Instance) admitLocked(p *performance) {
	for _, st := range in.admissionOrderLocked() {
		if st.phase != phasePending {
			continue
		}
		if st.ctx.Err() != nil {
			continue // being withdrawn by its enroller
		}
		r := st.offer.Role
		if p.finished.Contains(r) {
			continue // role already played this performance; wait for next
		}
		if !match.CanJoin(p.assigned, st.offer) {
			continue
		}
		in.assignLocked(p, st.offer)
	}
	if in.def.covered(p.assigned.Roles()) {
		in.closeMembershipLocked(p)
	}
}

// admissionOrderLocked returns pending offers in the fairness order. The
// order is cached and reused until the pending set changes or a new
// performance begins (Arbitrary fairness re-shuffles once per performance,
// not once per admission pass).
func (in *Instance) admissionOrderLocked() []*enrollState {
	if !in.admitDirty && in.admitPerf == in.perfCount {
		return in.admitOrder
	}
	out := append(in.admitOrder[:0], in.pending...)
	if in.fairness == match.Arbitrary {
		rng := newSeededRNG(in.seed + int64(in.perfCount))
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	in.admitOrder = out
	in.admitDirty = false
	in.admitPerf = in.perfCount
	return out
}

// closeMembershipLocked freezes the performance's membership: declared
// roles left unfilled are marked absent (Terminated(r) becomes true and
// communication with them yields ErrRoleAbsent), and operations blocked on
// roles that will never be filled are woken.
func (in *Instance) closeMembershipLocked(p *performance) {
	if p.membershipClosed {
		return
	}
	p.membershipClosed = true
	for r := range in.def.closedRoles() {
		if _, filled := p.assigned[r]; !filled {
			p.absent.Add(r)
			in.recordPerf(p, trace.Event{
				Kind: trace.KindAbsent, Script: in.def.name,
				Performance: p.number, Role: r,
			})
			p.fabric.Terminate(addrOf(r))
		}
	}
	live := make(map[rendezvous.Addr]bool, len(p.assigned))
	for r := range p.assigned {
		live[addrOf(r)] = true
	}
	p.fabric.TerminateAbsent(func(a rendezvous.Addr) bool { return live[a] })
	// A performance whose members all finished before membership closed
	// (possible when the closing cover arrives last) completes here.
	if p.finished.Len() == len(p.assigned) {
		in.finishPerformanceLocked(p)
	}
}

// finishPerformanceLocked ends performance p, wakes its held enrollers, and
// recycles its fabric. Every role body has returned by now (that is the
// finish condition), so the fabric is quiescent and safe to pool.
func (in *Instance) finishPerformanceLocked(p *performance) {
	if p.done {
		return
	}
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	p.done = true
	p.cancel()
	p.fabric.Close()
	perfCompletedTotal.Inc()
	in.recordPerf(p, trace.Event{Kind: trace.KindPerfEnd, Script: in.def.name, Performance: p.number})
	if p.traceID != 0 {
		in.traces.Remove(p.traceID)
	}
	if in.active == p {
		in.active = nil
	}
	close(p.doneCh)
	p.fabric.Reset()
	fabricPool.Put(p.fabric)
	p.fabric = nil
	in.notifyDrainLocked()
}

// addPendingLocked appends st to the pending set and invalidates the
// matcher and admission caches.
func (in *Instance) addPendingLocked(st *enrollState) {
	in.pending = append(in.pending, st)
	in.pendingCount.Store(int64(len(in.pending)))
	in.pendingByRole[st.offer.Role]++
	in.offersDirty = true
	in.admitDirty = true
}

func (in *Instance) takePendingLocked(offerID uint64) *enrollState {
	for i, st := range in.pending {
		if st.offer.ID == offerID {
			in.pending = append(in.pending[:i], in.pending[i+1:]...)
			in.pendingRemovedLocked(st)
			return st
		}
	}
	return nil
}

func (in *Instance) removePendingLocked(st *enrollState) {
	for i, s := range in.pending {
		if s == st {
			in.pending = append(in.pending[:i], in.pending[i+1:]...)
			in.pendingRemovedLocked(st)
			break
		}
	}
	st.phase = phaseWithdrawn
}

func (in *Instance) pendingRemovedLocked(st *enrollState) {
	in.pendingCount.Store(int64(len(in.pending)))
	if n := in.pendingByRole[st.offer.Role]; n <= 1 {
		delete(in.pendingByRole, st.offer.Role)
	} else {
		in.pendingByRole[st.offer.Role] = n - 1
	}
	in.offersDirty = true
	in.admitDirty = true
	in.notifyDrainLocked()
}

func (in *Instance) record(e trace.Event) {
	if in.nopTrace {
		return
	}
	in.tracer.Record(e)
}

// recordPerf records a per-performance event, stamping the performance's
// trace ID. When a sampler decided against tracing p, the event is skipped —
// that skip, decided once at initiation, is what makes sampled tracing cheap.
func (in *Instance) recordPerf(p *performance, e trace.Event) {
	if !p.sampled {
		return
	}
	e.TraceID = p.traceID
	in.record(e)
}

func addrOf(r ids.RoleRef) rendezvous.Addr { return rendezvous.Addr(r.String()) }
