package remote_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/remote"
)

// runStarOnce drives one full star_broadcast performance (1 sender, n
// recipients) through enr and reports the first error.
func runStarOnce(ctx context.Context, enr *remote.Enroller, n int, msg string) error {
	errCh := make(chan error, n+1)
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := enr.Enroll(ctx, core.Enrollment{
				PID:  ids.PID(fmt.Sprintf("listener-%d", i)),
				Role: ids.Member(patterns.RoleRecipient, i),
				Body: recipientBody(i),
			})
			if err != nil {
				errCh <- fmt.Errorf("listener-%d: %w", i, err)
				return
			}
			if len(res.Values) != 1 || res.Values[0] != msg {
				errCh <- fmt.Errorf("listener-%d: values = %v, want [%q]", i, res.Values, msg)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID:  "announcer",
			Role: ids.Role(patterns.RoleSender),
			Args: []any{msg},
			Body: senderBody(n),
		})
		if err != nil {
			errCh <- fmt.Errorf("announcer: %w", err)
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// TestMuxSharesOneConnection proves connection multiplexing: four
// concurrent enrollments (a sender and three recipients) ride a single
// connection instead of one conn per enrollment.
func TestMuxSharesOneConnection(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(3))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "star_broadcast"})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for round := 0; round < 2; round++ {
		if err := runStarOnce(ctx, enr, 3, fmt.Sprintf("round-%d", round)); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Stats().Conns; got != 1 {
		t.Fatalf("host served %d conns for 8 enrollments, want 1 multiplexed conn", got)
	}
}

// TestMuxDedicatedConnMode runs with MaxStreamsPerConn: 1 — a dedicated
// connection per enrollment (the baseline arm of the
// remote-star-broadcast-64 catalog entry).
func TestMuxDedicatedConnMode(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(2))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{
		Script:            "star_broadcast",
		MaxStreamsPerConn: 1,
	})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := runStarOnce(ctx, enr, 2, "dedicated"); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().Conns; got < 2 {
		t.Fatalf("host conns = %d with MaxStreamsPerConn=1, want >= 2", got)
	}
}

// TestMuxWithdrawRetiresIdleConn: an enrollment withdrawn before
// assignment sends CANCEL on its shared connection. When it was the
// connection's last user the conn must be retired, not pooled — otherwise
// a withdrawn enroller would pin a host connection slot forever.
func TestMuxWithdrawRetiresIdleConn(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{})
	defer enr.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID: "R", Role: ids.Member(patterns.RoleRecipient, 1),
			Body: recipientBody(1),
		})
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for in.PendingEnrollments() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("offer never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for in.PendingEnrollments() != 0 || h.Stats().Conns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after withdrawal: pending = %d, conns = %d; want 0, 0",
				in.PendingEnrollments(), h.Stats().Conns)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxWithdrawKeepsBusyConn is the counterpart: withdrawing one
// enrollment must NOT retire a connection other enrollments still use.
func TestMuxWithdrawKeepsBusyConn(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{})
	defer enr.Close()

	// A recipient waits (pending offer) while a second enrollment for the
	// same member is withdrawn; the survivor's performance must still run.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	recvErr := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID: "R1", Role: ids.Member(patterns.RoleRecipient, 1),
			Body: recipientBody(1),
		})
		recvErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for in.PendingEnrollments() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("offer never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	wctx, wcancel := context.WithCancel(ctx)
	withdrawnErr := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(wctx, core.Enrollment{
			PID: "R1b", Role: ids.Member(patterns.RoleRecipient, 1),
			Body: recipientBody(1),
		})
		withdrawnErr <- err
	}()
	for in.PendingEnrollments() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second offer never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	wcancel()
	if err := <-withdrawnErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("withdrawn err = %v, want context.Canceled", err)
	}
	if got := h.Stats().Conns; got != 1 {
		t.Fatalf("conns = %d after withdrawing one of two streams, want 1", got)
	}

	// The surviving recipient still completes once the sender shows up.
	if _, err := enr.Enroll(ctx, core.Enrollment{
		PID:  "announcer",
		Role: ids.Role(patterns.RoleSender),
		Args: []any{"still-alive"},
		Body: senderBody(1),
	}); err != nil {
		t.Fatalf("announcer: %v", err)
	}
	if err := <-recvErr; err != nil {
		t.Fatalf("surviving recipient: %v", err)
	}
}

// TestMuxPipelinedAllocs is the allocation regression guard for the wire
// hot path: a steady-state Send/Recv exchange (client encode, host decode,
// rendezvous, result frame back) must not regress to per-op JSON-encoding
// costs. The bound is deliberately generous — it counts every allocation
// in the process across both enrollment bodies, the host, and the core
// engine — but a JSON payload codec lands several times higher.
func TestMuxPipelinedAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is noisy under -short CI shards")
	}
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "star_broadcast"})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	recvDone := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID: "sink", Role: ids.Member(patterns.RoleRecipient, 1),
			Body: func(rc core.Ctx) error {
				for {
					v, err := rc.Recv(ids.Role(patterns.RoleSender))
					if err != nil {
						return err
					}
					if v == "done" {
						return nil
					}
				}
			},
		})
		recvDone <- err
	}()

	var perOp float64
	_, err := enr.Enroll(ctx, core.Enrollment{
		PID:  "pump",
		Role: ids.Role(patterns.RoleSender),
		Args: []any{"alloc-pump"},
		Body: func(rc core.Ctx) error {
			to := ids.Member(patterns.RoleRecipient, 1)
			// Warm the path (conn, stream, first rendezvous) before counting.
			for i := 0; i < 10; i++ {
				if err := rc.Send(to, 7); err != nil {
					return err
				}
			}
			perOp = testing.AllocsPerRun(200, func() {
				if err := rc.Send(to, 7); err != nil {
					panic(err)
				}
			})
			return rc.Send(to, "done")
		},
	})
	if err != nil {
		t.Fatalf("pump: %v", err)
	}
	if err := <-recvDone; err != nil {
		t.Fatalf("sink: %v", err)
	}
	t.Logf("pipelined v2 Send: %.0f allocs/op end-to-end", perOp)
	// The bound leaves ample headroom for scheduler noise while still
	// catching a return to per-frame encoding/json (which measures several
	// hundred allocs per exchange).
	if perOp > 60 {
		t.Fatalf("pipelined v2 Send costs %.0f allocs/op end-to-end, want <= 60", perOp)
	}
}
