package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/remote"
)

// starN is the recipient count of the star workloads' StarBroadcast.
const starN = 64

// Trace sampling for the star workloads: spans are kept for every n-th
// sender op and every n-th recipient enrollment, which bounds a traced
// run's span count while leaving thousands of samples per layer.
const (
	starLocalOpEvery        = 2
	starLocalResidentEvery  = 16
	starRemoteOpEvery       = 1
	starRemoteResidentEvery = 8
)

type enrollFunc func(context.Context, core.Enrollment) (core.Result, error)

// star is nproc independent StarBroadcast(64) casts. Each has 64 resident
// recipients that re-enroll forever and one closed-loop sender; an op is
// one sender enrollment, that is one whole performance. Remote, every role
// enrolls over loopback TCP through one enroller per caller into one
// in-process host, and every role body runs client-side.
type star struct {
	h       *harness
	remote  bool
	insts   []*core.Instance
	host    *remote.Host
	served  chan error
	enrs    []*remote.Enroller
	callers []*starCaller

	residents context.Context
	stop      context.CancelFunc
	wg        sync.WaitGroup
}

type starCaller struct {
	idx      int
	enroll   enrollFunc
	sender   ids.PID
	recips   []ids.PID
	tos      []ids.RoleRef
	sent     int   // completed sender ops, all phases
	received []int // per recipient: results checked
	opN      int   // sender ops started (sampling)
	resN     []int // per recipient: enrollments started (sampling)
}

func newStar(h *harness, remoteCast bool) (cast, error) {
	n := runtime.NumCPU()
	s := &star{h: h, remote: remoteCast}
	s.residents, s.stop = context.WithCancel(h.ctx)
	def := patterns.StarBroadcast(starN)
	tos := make([]ids.RoleRef, starN)
	for i := range tos {
		tos[i] = ids.Member(patterns.RoleRecipient, i+1)
	}
	owner := map[ids.PID]int{}
	for k := 0; k < n; k++ {
		in := core.NewInstance(def)
		c := &starCaller{
			idx:      k,
			enroll:   in.Enroll,
			sender:   ids.PID(fmt.Sprintf("c%d.sender", k)),
			tos:      tos,
			received: make([]int, starN),
			resN:     make([]int, starN),
		}
		owner[c.sender] = k
		for i := 1; i <= starN; i++ {
			pid := ids.PID(fmt.Sprintf("c%d.r%d", k, i))
			c.recips = append(c.recips, pid)
			owner[pid] = k
		}
		s.insts = append(s.insts, in)
		s.callers = append(s.callers, c)
	}
	if remoteCast {
		rt := &router{insts: s.insts, owner: owner, rec: h.rec}
		s.host = remote.NewHost(rt, remote.HostConfig{})
		if err := s.host.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		s.served = make(chan error, 1)
		go func() { s.served <- s.host.Serve() }()
		for _, c := range s.callers {
			enr := remote.NewEnroller(s.host.Addr().String(), remote.EnrollerConfig{
				Script: def.Name(),
				// One connection carries a caller's whole cast.
				MaxStreamsPerConn: 2 * (starN + 1),
			})
			s.enrs = append(s.enrs, enr)
			c.enroll = enr.Enroll
		}
	}
	for _, c := range s.callers {
		for i := range c.recips {
			s.wg.Add(1)
			go s.recipient(c, i)
		}
	}
	if err := waitReady(h, "recipients parked", remoteCast, s.parked); err != nil {
		_ = s.teardown()
		return nil, err
	}
	return s, nil
}

// parked reports whether every recipient holds a pending offer.
func (s *star) parked() bool {
	for _, in := range s.insts {
		if in.PendingOffers() != starN {
			return false
		}
	}
	return true
}

// opValue is what caller k's sender broadcasts in performance perf: derived
// from the seed, so a recipient can check that its result is its sender's
// value for that very performance. It is an int because the wire codec
// decodes every integer as one.
func opValue(seed int64, caller, perf int) int {
	x := uint64(seed) ^ uint64(caller)<<48 ^ uint64(perf)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int(x ^ (x >> 31))
}

func (s *star) every() (op, resident int) {
	if s.remote {
		return starRemoteOpEvery, starRemoteResidentEvery
	}
	return starLocalOpEvery, starLocalResidentEvery
}

func (s *star) load() {
	var wg sync.WaitGroup
	for _, c := range s.callers {
		wg.Add(1)
		go func(c *starCaller) {
			defer wg.Done()
			s.sender(c)
		}(c)
	}
	wg.Wait()
}

// sender is one closed-loop caller: it enrolls as sender again as soon as
// its previous performance is over.
func (s *star) sender(c *starCaller) {
	var st [nPhases]opStats
	seed := s.h.cfg.seed
	plain := func(rc core.Ctx) error {
		return rc.SendAll(c.tos, opValue(seed, c.idx, rc.Performance()))
	}
	opEvery, _ := s.every()
	for {
		ph := s.h.phase.Load()
		if ph == phDone {
			break
		}
		e := core.Enrollment{PID: c.sender, Role: ids.Role(patterns.RoleSender), Body: plain}
		var tr *opTrace
		if s.h.tracing() {
			c.opN++
			if c.opN%opEvery == 0 {
				tr = s.traceOp(c.sender, &e, true)
			}
		}
		t0 := time.Now()
		_, err := c.enroll(s.h.ctx, e)
		t1 := time.Now()
		if tr != nil {
			tr.finish(t0, t1)
		}
		st[ph] = append(st[ph], opRec{at: t0.Sub(s.h.start), lat: us(t1.Sub(t0)), ok: err == nil})
		if err != nil {
			s.h.fail("sender %s: %v", c.sender, err)
			break
		}
		c.sent++
	}
	for ph := range st {
		s.h.addStats(int32(ph), st[ph])
	}
}

// recipient is one resident role-player; it re-enrolls until teardown and
// checks every result it gets.
func (s *star) recipient(c *starCaller, i int) {
	defer s.wg.Done()
	pid, role := c.recips[i], ids.Member(patterns.RoleRecipient, i+1)
	sender := ids.Role(patterns.RoleSender)
	plain := func(rc core.Ctx) error {
		v, err := rc.Recv(sender)
		if err != nil {
			return err
		}
		rc.SetResult(0, v)
		return nil
	}
	_, resEvery := s.every()
	for {
		e := core.Enrollment{PID: pid, Role: role, Body: plain}
		var tr *opTrace
		if s.h.tracing() {
			c.resN[i]++
			if c.resN[i]%resEvery == 0 {
				tr = s.traceOp(pid, &e, false)
			}
		}
		res, err := c.enroll(s.residents, e)
		if tr != nil {
			tr.done()
		}
		if err != nil {
			if s.residents.Err() == nil {
				s.h.fail("recipient %s: %v", pid, err)
			}
			return
		}
		want := opValue(s.h.cfg.seed, c.idx, res.Performance)
		if len(res.Values) != 1 || res.Values[0] != any(want) {
			s.h.fail("recipient %s, performance %d: result %v, want [%d]", pid, res.Performance, res.Values, want)
		}
		c.received[i]++
	}
}

// traceOp wraps e's body so that the op records spans; see opTrace.
func (s *star) traceOp(pid ids.PID, e *core.Enrollment, measured bool) *opTrace {
	side := sideLocal
	if s.remote {
		side = sideClient
	}
	return startTrace(s.h.rec, s.h.nextOp(), pid, e, side, measured)
}

func (s *star) teardown() error {
	// Every recipient must be parked again before the residents are
	// released: then each has already checked its last result.
	if err := waitReady(s.h, "recipients re-parked", s.remote, s.parked); err != nil {
		s.h.fail("teardown: %v", err)
	}
	s.stop()
	s.wg.Wait()
	for _, enr := range s.enrs {
		enr.Close()
	}
	var err error
	if s.host != nil {
		err = s.host.Close()
		if serr := <-s.served; serr != nil && err == nil {
			err = serr
		}
	}
	for _, in := range s.insts {
		in.Close()
	}
	return err
}

// verify checks that every recipient received every performance its
// sender completed, each with the right value (checked as it arrived).
func (s *star) verify() {
	for _, c := range s.callers {
		for i, got := range c.received {
			if got != c.sent {
				s.h.fail("recipient %s: %d results checked, sender completed %d performances", c.recips[i], got, c.sent)
			}
		}
	}
}

func (s *star) shape() probeShape {
	cast := []ids.RoleRef{ids.Role(patterns.RoleSender)}
	cast = append(cast, s.callers[0].tos...)
	v := opValue(s.h.cfg.seed, 0, 1)
	names := make([]string, len(s.callers[0].tos))
	for i, r := range s.callers[0].tos {
		names[i] = r.String()
	}
	return probeShape{
		cast:  cast,
		piles: s.callers[0].tos,
		frames: []probeFrame{
			sendAllFrame(names, v),
			opResultFrame(nil),
			recvFrame(patterns.RoleSender),
			opResultFrame(v),
		},
	}
}

func (s *star) instances() []*core.Instance { return s.insts }
