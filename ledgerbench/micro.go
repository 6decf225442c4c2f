package main

import (
	"fmt"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/match"
	"github.com/scriptabs/goscript/internal/wire"
)

// probeShape describes a workload's script for the layer probes that run
// after teardown, when nothing else competes for the CPU.
type probeShape struct {
	cast   []ids.RoleRef // one offer per role: the smallest match
	piles  []ids.RoleRef // roles whose offers pile up beyond the cast
	frames []probeFrame  // the workload's own op and result frames
}

type probeFrame struct {
	typ wire.MsgType
	msg any
}

func sendAllFrame(tos []string, v any) probeFrame {
	return probeFrame{wire.MsgSendAll, wire.SendAll{Tos: tos, Val: v}}
}

func recvFrame(from string) probeFrame {
	return probeFrame{wire.MsgRecv, wire.Recv{From: from}}
}

func opResultFrame(v any) probeFrame {
	return probeFrame{wire.MsgOpResult, wire.OpResult{Val: v}}
}

// problem is a match.Problem shaped like the workload's script with depth
// pending offers: the cast (in arrival order) plus offers for the piling
// roles.
func (p probeShape) problem(depth int) match.Problem {
	roles := ids.NewRoleSet(p.cast...)
	n := max(depth, len(p.cast))
	offers := make([]match.Offer, 0, n)
	for i := 0; i < n; i++ {
		var r ids.RoleRef
		if i < len(p.cast) {
			r = p.cast[i]
		} else {
			r = p.piles[(i-len(p.cast))%len(p.piles)]
		}
		offers = append(offers, match.Offer{ID: uint64(i + 1), PID: ids.PID(fmt.Sprintf("p%d", i)), Role: r})
	}
	return match.Problem{Roles: roles, Offers: offers, Fairness: match.FIFO}
}

// probeReps is how many timing rounds a probe takes the median of.
const probeReps = 5

// timeOp returns f's median time per call over probeReps rounds of at
// least 20ms each, and its heap allocations per call.
func timeOp(f func()) (ns, allocs float64) {
	f()
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) >= 20*time.Millisecond {
			break
		}
		n *= 2
	}
	rounds := make([]float64, probeReps)
	for r := range rounds {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		rounds[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(rounds), testing.AllocsPerRun(100, f)
}

// probeMatch times match.Find on the workload's problem at depth.
func probeMatch(p probeShape, depth int) (us, allocs float64, err error) {
	prob := p.problem(depth)
	if _, ok := match.Find(prob); !ok {
		return 0, 0, fmt.Errorf("match probe: no match at depth %d", depth)
	}
	ns, allocs := timeOp(func() { match.Find(prob) })
	return ns / 1000, allocs, nil
}

// probeCodec times one v2 encode and decode per frame of the workload.
func probeCodec(p probeShape) (nsPerFrame, allocsPerFrame float64, err error) {
	var buf []byte
	for _, f := range p.frames {
		if buf, err = wire.AppendPayload(buf[:0], wire.MaxVersion, f.typ, 3, 17, f.msg); err != nil {
			return 0, 0, fmt.Errorf("codec probe: %w", err)
		}
		if _, _, _, err = wire.ParsePayload(wire.MaxVersion, f.typ, buf); err != nil {
			return 0, 0, fmt.Errorf("codec probe: %w", err)
		}
	}
	ns, allocs := timeOp(func() {
		for _, f := range p.frames {
			buf, _ = wire.AppendPayload(buf[:0], wire.MaxVersion, f.typ, 3, 17, f.msg)
			_, _, _, _ = wire.ParsePayload(wire.MaxVersion, f.typ, buf)
		}
	})
	n := float64(len(p.frames))
	return ns / n, allocs / n, nil
}
