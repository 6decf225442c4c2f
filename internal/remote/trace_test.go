package remote_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/trace"
)

// testTracePropagation drives one star-broadcast performance with a sampling
// enroller against a tracing host and asserts that every party — host
// included — observed the same trace ID. The client mints an ID per Enroll
// call, the host adopts one for the performance and echoes it in OFFER-ACK,
// so all results and all recorded events must converge on a single ID.
func testTracePropagation(t *testing.T, hostCfg remote.HostConfig) {
	t.Helper()
	hostLog := &trace.Log{}
	in := core.NewInstance(patterns.StarBroadcast(2), core.WithTracer(hostLog))
	defer in.Close()
	_, addr := startHost(t, in, hostCfg)

	clientLog := &trace.Log{}
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{
		Script:  "star_broadcast",
		Sampler: trace.AlwaysSample(99),
		Tracer:  clientLog,
	})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var mu sync.Mutex
	var gotIDs []trace.TraceID
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := enr.Enroll(ctx, core.Enrollment{
				PID:  ids.PID(fmt.Sprintf("listener-%d", i)),
				Role: ids.Member(patterns.RoleRecipient, i),
				Body: recipientBody(i),
			})
			if err != nil {
				t.Errorf("listener-%d: %v", i, err)
				return
			}
			mu.Lock()
			gotIDs = append(gotIDs, res.TraceID)
			mu.Unlock()
		}(i)
	}
	res, err := enr.Enroll(ctx, core.Enrollment{
		PID:  "announcer",
		Role: ids.Role(patterns.RoleSender),
		Args: []any{"ping"},
		Body: senderBody(2),
	})
	if err != nil {
		t.Fatalf("announcer: %v", err)
	}
	wg.Wait()
	gotIDs = append(gotIDs, res.TraceID)

	id := gotIDs[0]
	if id == 0 {
		t.Fatalf("sampled enrollment returned zero trace ID")
	}
	for _, got := range gotIDs {
		if got != id {
			t.Fatalf("trace IDs diverge across parties: %v", gotIDs)
		}
	}

	// The host recorded the performance under the same ID the clients saw.
	if _, ok := hostLog.First(func(e trace.Event) bool {
		return e.Kind == trace.KindPerfStart && e.TraceID == id
	}); !ok {
		t.Errorf("host log has no KindPerfStart with trace %s:\n%s", id, hostLog.Timeline())
	}
	// Every performance-scoped host event carries the ID. KindEnroll fires
	// at offer time, before a performance (and its sampling decision) exists,
	// so those stay unstamped.
	for _, e := range hostLog.Events() {
		if e.Kind == trace.KindEnroll {
			continue
		}
		if e.TraceID != id {
			t.Errorf("host event %v carries trace %s, want %s", e.Kind, e.TraceID, id)
		}
	}

	// The client recorded its side — start/finish plus the ops — under the
	// same ID.
	for _, kind := range []trace.Kind{trace.KindStart, trace.KindFinish, trace.KindSend, trace.KindRecv} {
		kind := kind
		if _, ok := clientLog.First(func(e trace.Event) bool {
			return e.Kind == kind && e.TraceID == id
		}); !ok {
			t.Errorf("client log has no %v with trace %s:\n%s", kind, id, clientLog.Timeline())
		}
	}
}

func TestTracePropagationV2(t *testing.T) {
	testTracePropagation(t, remote.HostConfig{})
}

// TestUnsampledEnrollStaysUntraced pins the negative path: with samplers
// that never fire on either side, no trace IDs cross the wire and neither
// side records anything.
func TestUnsampledEnrollStaysUntraced(t *testing.T) {
	hostLog := &trace.Log{}
	in := core.NewInstance(patterns.StarBroadcast(2),
		core.WithTracer(hostLog), core.WithSampler(trace.NeverSample()))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})

	clientLog := &trace.Log{}
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{
		Script:  "star_broadcast",
		Sampler: trace.NeverSample(),
		Tracer:  clientLog,
	})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := enr.Enroll(ctx, core.Enrollment{
				PID:  ids.PID(fmt.Sprintf("listener-%d", i)),
				Role: ids.Member(patterns.RoleRecipient, i),
				Body: recipientBody(i),
			})
			if err != nil {
				t.Errorf("listener-%d: %v", i, err)
			} else if res.TraceID != 0 {
				t.Errorf("listener-%d: unsampled trace ID = %s, want zero", i, res.TraceID)
			}
		}(i)
	}
	res, err := enr.Enroll(ctx, core.Enrollment{
		PID:  "announcer",
		Role: ids.Role(patterns.RoleSender),
		Args: []any{"ping"},
		Body: senderBody(2),
	})
	if err != nil {
		t.Fatalf("announcer: %v", err)
	}
	wg.Wait()
	if res.TraceID != 0 {
		t.Errorf("announcer trace ID = %s, want zero", res.TraceID)
	}
	if n := clientLog.Len(); n != 0 {
		t.Errorf("client log has %d events, want 0:\n%s", n, clientLog.Timeline())
	}
	// Only the pre-performance enroll events survive on the host; nothing
	// performance-scoped is recorded for an unsampled run.
	for _, e := range hostLog.Events() {
		if e.Kind != trace.KindEnroll {
			t.Errorf("host recorded %v for an unsampled performance:\n%s", e.Kind, hostLog.Timeline())
		}
	}
}
