package perfbench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	script "github.com/scriptabs/goscript"
	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/rendezvous"
	"github.com/scriptabs/goscript/internal/wire"
)

// EnrollFunc is the entry point a driver enrolls through:
// core.Instance.Enroll, script.Pool.Enroll or remote.Enroller.Enroll.
type EnrollFunc func(context.Context, core.Enrollment) (core.Result, error)

// Cast drives b.N performances through enroll. Every resident enrollment
// re-enrolls on its own goroutine for the whole run, and each op is one
// enrollment of op(i): a complete performance once the residents fill the
// other roles. When the timed loop ends the residents' context is
// cancelled and stop, if non-nil, runs before Cast waits for them; an
// in-process caller passes its instance's Close, which also ends the
// performances residents are still inside.
func Cast(b *testing.B, enroll EnrollFunc, stop func(), residents []core.Enrollment, op func(i int) core.Enrollment) {
	b.ReportAllocs()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, e := range residents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := enroll(ctx, e); err != nil {
					return
				}
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enroll(ctx, op(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cancel()
	if stop != nil {
		stop()
	}
	wg.Wait()
}

// recipients returns the resident enrollments R1…Rn of a star-shaped
// script's recipient family, each running body (nil: the definition's).
func recipients(n int, body core.RoleBody) []core.Enrollment {
	rs := make([]core.Enrollment, n)
	for i := range rs {
		rs[i] = core.Enrollment{
			PID:  ids.PID(fmt.Sprintf("R%d", i+1)),
			Role: ids.Member(patterns.RoleRecipient, i+1),
			Body: body,
		}
	}
	return rs
}

// Broadcast drives b.N performances of def, a script with a sender role
// and an n-member recipient family named as in patterns.StarBroadcast: the
// recipients are residents, each op is one sender enrollment carrying the
// op index as its argument.
func Broadcast(b *testing.B, def core.Definition, n int, opts ...core.Option) {
	in := core.NewInstance(def, opts...)
	defer in.Close()
	Cast(b, in.Enroll, in.Close, recipients(n, nil), func(i int) core.Enrollment {
		return core.Enrollment{PID: "T", Role: ids.Role(patterns.RoleSender), Args: []any{i}}
	})
}

// Successive drives one performance per op of a three-role script with
// empty bodies under immediate initiation and termination: the cost of
// Figure 1's successive-activations barrier itself.
func Successive(b *testing.B) {
	def := core.NewScript("fig1").
		Role("p", func(rc core.Ctx) error { return nil }).
		Role("q", func(rc core.Ctx) error { return nil }).
		Role("r", func(rc core.Ctx) error { return nil }).
		Initiation(core.ImmediateInitiation).
		Termination(core.ImmediateTermination).
		MustBuild()
	in := core.NewInstance(def)
	defer in.Close()
	residents := []core.Enrollment{{PID: "q-proc", Role: ids.Role("q")}, {PID: "r-proc", Role: ids.Role("r")}}
	Cast(b, in.Enroll, in.Close, residents, func(int) core.Enrollment {
		return core.Enrollment{PID: "p-proc", Role: ids.Role("p")}
	})
}

// share drives b.N enrollments in the role "only" through enroll, split
// among workers concurrent enrollers, so ns/op is the per-performance cost
// under contention. (Timing one foreground enroller instead would fold in
// the FIFO queue depth at its enrollment, which varies run to run.)
func share(b *testing.B, enroll EnrollFunc, workers int) {
	b.ReportAllocs()
	var next atomic.Int64
	var failures atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		pid := ids.PID(fmt.Sprintf("W%d", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := enroll(context.Background(), core.Enrollment{PID: pid, Role: ids.Role("only")}); err != nil {
					failures.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if failures.Load() > 0 {
		b.Fatalf("%d enrollments failed", failures.Load())
	}
}

// contended is n enrollers contending for the one role of an empty script.
func contended(b *testing.B, n int, opts ...core.Option) {
	def := core.NewScript("slot").
		Role("only", func(rc core.Ctx) error { return nil }).
		MustBuild()
	in := core.NewInstance(def, opts...)
	defer in.Close()
	share(b, in.Enroll, n)
}

// pool is 64 enrollers driving single-role performances whose body blocks
// briefly (an I/O-bound role) through a script.Pool of size instances: one
// instance serializes the bodies by the successive-activations rule, a
// pool overlaps one performance per instance.
func pool(b *testing.B, size int) {
	def := script.New("slot").
		Role("only", func(rc script.Ctx) error {
			time.Sleep(20 * time.Microsecond)
			return nil
		}).
		MustBuild()
	p := script.NewPool(def, size)
	defer p.Close()
	share(b, p.Enroll, 64)
}

// remoteStar is the star broadcast pushed through the wire: a remote.Host
// serves StarBroadcast(n) on loopback, n resident recipients re-enroll
// through one shared Enroller, and each op is one sender enrollment — a
// complete performance whose every role body runs client-side, each
// communication op a request/response frame pair. cfg selects the
// connection mode: default (multiplexed) or MaxStreamsPerConn: 1 (a
// dedicated connection per enrollment).
func remoteStar(b *testing.B, n int, cfg remote.EnrollerConfig) {
	cfg.Script = "star_broadcast"
	in := core.NewInstance(patterns.StarBroadcast(n))
	h := remote.NewHost(in, remote.HostConfig{})
	if err := h.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go h.Serve()
	enr := remote.NewEnroller(h.Addr().String(), cfg)
	recvBody := func(rc core.Ctx) error {
		v, err := rc.Recv(ids.Role(patterns.RoleSender))
		if err != nil {
			return err
		}
		rc.SetResult(0, v)
		return nil
	}
	tos := make([]ids.RoleRef, n)
	for i := 1; i <= n; i++ {
		tos[i-1] = ids.Member(patterns.RoleRecipient, i)
	}
	Cast(b, enr.Enroll, nil, recipients(n, recvBody), func(i int) core.Enrollment {
		return core.Enrollment{
			PID: "T", Role: ids.Role(patterns.RoleSender),
			Body: func(rc core.Ctx) error { return rc.SendAll(tos, i) },
		}
	})
	enr.Close()
	h.Close()
	in.Close()
}

// pingPong is pairs disjoint (sender, receiver) pairs exchanging b.N
// messages in total through one fabric; each committed rendezvous is one
// op. With forceSlow every op takes the locked matcher — the pre-two-lane
// behavior — so the pair measures exactly what the fast lane buys.
func pingPong(b *testing.B, pairs int, forceSlow bool) {
	var opts []rendezvous.Option
	if forceSlow {
		opts = append(opts, rendezvous.WithoutFastPath())
	}
	b.ReportAllocs()
	f := rendezvous.New(opts...)
	ctx := context.Background()
	var failures atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for p := 0; p < pairs; p++ {
		from := rendezvous.Addr(fmt.Sprintf("S%d", p))
		to := rendezvous.Addr(fmt.Sprintf("R%d", p))
		n := b.N / pairs
		if p == 0 {
			n += b.N % pairs
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := f.Send(ctx, from, to, "t", i); err != nil {
					failures.Add(1)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := f.Recv(ctx, to, from, "t"); err != nil {
					failures.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if failures.Load() > 0 {
		b.Fatalf("%d fabric ops failed", failures.Load())
	}
}

// scatter is one complete n-recipient fan-out from a single sender per op:
// vectorized through Fabric.Scatter, or (with serial) the paper's Figure 3
// loop of n blocking sends.
func scatter(b *testing.B, n int, serial bool) {
	b.ReportAllocs()
	f := rendezvous.New()
	ctx := context.Background()
	targets := make([]rendezvous.Addr, n)
	for i := range targets {
		targets[i] = rendezvous.Addr(fmt.Sprintf("R%d", i))
	}
	var failures atomic.Int64
	var wg sync.WaitGroup
	for _, to := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if _, err := f.Recv(ctx, to, "S", "t"); err != nil {
					failures.Add(1)
					return
				}
			}
		}()
	}
	val := []any{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if serial {
			for _, to := range targets {
				if err := f.Send(ctx, "S", to, "t", 1); err != nil {
					b.Fatal(err)
				}
			}
		} else if err := f.Scatter(ctx, "S", "t", targets, val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	wg.Wait()
	if failures.Load() > 0 {
		b.Fatalf("%d receives failed", failures.Load())
	}
}

// codec is the codec cost of one remote communication op in isolation —
// encode a SEND frame payload, decode it, encode the OP-RESULT reply,
// decode that — with no sockets or scheduler in the way. It reuses one
// buffer exactly as wire.Conn's write path does with its pooled buffers.
func codec(b *testing.B) {
	send := wire.Send{
		To:  "recipient[7]",
		Tag: "update",
		Val: map[string]any{"seq": 42, "payload": "0123456789abcdef0123456789abcdef"},
	}
	reply := wire.OpResult{Val: []any{"ack", 42}, Peer: "recipient[7]", Tag: "update"}
	const ver, stream, seq = wire.MaxVersion, 3, 17
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = wire.AppendPayload(buf[:0], ver, wire.MsgSend, stream, seq, send)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err = wire.ParsePayload(ver, wire.MsgSend, buf); err != nil {
			b.Fatal(err)
		}
		buf, err = wire.AppendPayload(buf[:0], ver, wire.MsgOpResult, stream, seq, reply)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err = wire.ParsePayload(ver, wire.MsgOpResult, buf); err != nil {
			b.Fatal(err)
		}
	}
}
