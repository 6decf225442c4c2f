package perfbench

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/metrics"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/registry"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/trace"
)

// window is what one closed-loop fixed-window drive measured.
type window struct {
	attempted, completed, failed uint64
	throughput                   float64       // completions per second
	p99                          time.Duration // over completed enrollments
}

// drive runs clients closed-loop enrollers through enroll for d: client c
// enrolls as PID C<c> in the role "only" with body, back to back, until d
// has passed. Throughput and the p99 latency cover completions only.
func drive(enroll EnrollFunc, clients int, d time.Duration, body core.RoleBody) window {
	ctx := context.Background()
	var attempted, completed, failed atomic.Uint64
	samples := make([][]time.Duration, clients)
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		e := core.Enrollment{PID: ids.PID(fmt.Sprintf("C%d", c)), Role: ids.Role("only"), Body: body}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				attempted.Add(1)
				t0 := time.Now()
				if _, err := enroll(ctx, e); err != nil {
					failed.Add(1)
					continue
				}
				completed.Add(1)
				samples[c] = append(samples[c], time.Since(t0))
			}
		}()
	}
	wg.Wait()

	var all []time.Duration
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	w := window{
		attempted:  attempted.Load(),
		completed:  completed.Load(),
		failed:     failed.Load(),
		throughput: float64(completed.Load()) / d.Seconds(),
	}
	if n := len(all); n > 0 {
		w.p99 = all[min(n*99/100, n-1)]
	}
	return w
}

// slotHost serves a one-role "slot" script on loopback. The role's body
// only ever runs client-side, so the local one fails if reached.
func slotHost(cfg remote.HostConfig) (*core.Instance, *remote.Host) {
	def := core.NewScript("slot").
		Role("only", func(rc core.Ctx) error { return fmt.Errorf("local body must not run") }).
		MustBuild()
	in := core.NewInstance(def)
	h := remote.NewHost(in, cfg)
	if err := h.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	go h.Serve()
	return in, h
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// noBreaker keeps sustained overload and conn-lost bursts from tripping
// client-local fail-fasts, which would hide what the host does.
var noBreaker = remote.BreakerConfig{FailureThreshold: -1}

// retryPolicy is the client retry policy of the saturation and fleet drives.
var retryPolicy = remote.RetryPolicy{
	MaxAttempts: 100,
	BaseBackoff: time.Millisecond,
	MaxBackoff:  8 * time.Millisecond,
	Seed:        42,
}

// saturationCap is the saturation entry's host admission cap
// (MaxEnrollments); offered load is expressed as multiples of it.
const saturationCap = 4

// saturationWindow is how long each saturation load point runs.
const saturationWindow = 400 * time.Millisecond

// runSaturation offers a capped remote host 1×, 2× and 4× its admission
// cap of concurrent single-role enrollments, once with the client retry
// policy off (over-cap offers bounce with ErrOverloaded and are lost
// goodput) and once with it on (sheds are retried under backoff until
// admitted). The headline is the 4×-with-retry point's per-completion cost.
func runSaturation(s Spec) Result {
	res := s.result(testing.BenchmarkResult{})
	for _, factor := range []int{1, 2, 4} {
		for _, withRetry := range []bool{false, true} {
			res.Saturation = append(res.Saturation, saturationPoint(factor, withRetry))
		}
	}
	headline := res.Saturation[len(res.Saturation)-1]
	res.Iterations, res.NsPerOp = int(headline.Completed), perCompletion(headline.Throughput)
	return res
}

func saturationPoint(factor int, withRetry bool) SaturationPoint {
	in, h := slotHost(remote.HostConfig{MaxEnrollments: saturationCap, RetryAfter: 2 * time.Millisecond})
	cfg := remote.EnrollerConfig{Breaker: noBreaker}
	if withRetry {
		cfg.Retry = retryPolicy
	}
	enr := remote.NewEnroller(h.Addr().String(), cfg)
	// The body spins (not sleeps) ~200µs so each admitted enrollment holds
	// its slot for a consistent service time — time.Sleep's wakeup latency
	// varies with how busy the process is, which would let the shed traffic
	// itself distort per-point service times.
	w := drive(enr.Enroll, saturationCap*factor, saturationWindow, func(rc core.Ctx) error {
		for t0 := time.Now(); time.Since(t0) < 200*time.Microsecond; {
		}
		return nil
	})
	shed := h.Stats().ShedEnrollments
	enr.Close()
	h.Close()
	in.Close()
	return SaturationPoint{
		LoadFactor:   factor,
		Retry:        withRetry,
		Attempted:    w.attempted,
		Completed:    w.completed,
		Failed:       w.failed,
		Shed:         shed,
		Throughput:   w.throughput,
		P99LatencyMS: ms(w.p99),
	}
}

// fleetCap is the fleet entry's per-host admission cap: small enough that
// goodput is bound by slot capacity, not CPU, so adding hosts adds
// capacity even on a single-core machine.
const fleetCap = 4

// fleetServiceTime is how long each admitted fleet enrollment holds its
// slot. Sleeping (not spinning) keeps N×fleetCap concurrent bodies from
// competing for cycles — the point is slot scaling, not scheduler
// throughput.
const fleetServiceTime = 3 * time.Millisecond

// fleetWindow is how long each fleet point runs.
const fleetWindow = 600 * time.Millisecond

// fleetClients is the client population offered to every fleet size — held
// constant so the only variable across points is capacity.
const fleetClients = 64

// runFleet points the saturation drive at a fleet: each point announces N
// capped hosts to a registry with live load digests and drives them
// through one registry-backed round-robin enroller shared by fleetClients
// retrying clients. Each point records its aggregate goodput over the
// single-host point's; the headline is the largest fleet's per-completion
// cost, the baseline the single host's.
func runFleet(s Spec) Result {
	res := s.result(testing.BenchmarkResult{})
	for _, hosts := range []int{1, 2, 4} {
		res.Fleet = append(res.Fleet, fleetPoint(hosts))
	}
	single := res.Fleet[0].Throughput
	for i := range res.Fleet {
		if single > 0 {
			res.Fleet[i].ScalingVsSingle = res.Fleet[i].Throughput / single
		}
	}
	headline := res.Fleet[len(res.Fleet)-1]
	res.Iterations, res.NsPerOp = int(headline.Completed), perCompletion(headline.Throughput)
	res.compare(perCompletion(single))
	return res
}

func fleetPoint(nHosts int) FleetPoint {
	reg := registry.NewStatic()
	ins := make([]*core.Instance, nHosts)
	hosts := make([]*remote.Host, nHosts)
	for i := range hosts {
		in, h := slotHost(remote.HostConfig{MaxEnrollments: fleetCap, RetryAfter: 2 * time.Millisecond})
		reg.Announce(
			registry.Endpoint{Addr: h.Addr().String(), Scripts: []string{"slot"}},
			func() registry.Load {
				st := h.Stats()
				return registry.Load{
					Conns:         st.Conns,
					Enrolling:     st.Enrolling,
					PendingOffers: in.PendingOffers(),
				}
			})
		ins[i], hosts[i] = in, h
	}
	enr := remote.NewEnrollerRegistry(reg, remote.EnrollerConfig{
		Script: "slot",
		// Round-robin spreads blind but evenly; the 25ms-refresh load
		// digests would herd a least-loaded pick under this many clients.
		Balancer: remote.NewRoundRobin(),
		Breaker:  noBreaker,
		Retry:    retryPolicy,
	})
	w := drive(enr.Enroll, fleetClients, fleetWindow, func(rc core.Ctx) error {
		time.Sleep(fleetServiceTime)
		return nil
	})
	var shed uint64
	for _, h := range hosts {
		shed += uint64(h.Stats().ShedEnrollments)
	}
	minShare := 1.0
	if w.completed > 0 {
		for _, in := range ins {
			minShare = min(minShare, float64(in.Performances())/float64(w.completed))
		}
	}
	enr.Close()
	reg.Close()
	for i := range hosts {
		hosts[i].Close()
		ins[i].Close()
	}
	return FleetPoint{
		Hosts:        nHosts,
		Clients:      fleetClients,
		Attempted:    w.attempted,
		Completed:    w.completed,
		Failed:       w.failed,
		Shed:         shed,
		Throughput:   w.throughput,
		MinHostShare: minShare,
	}
}

// churnClients is the churn entry's concurrent enroller population.
const churnClients = 8

// churnWindow is how long each churn arm runs.
const churnWindow = 400 * time.Millisecond

// churnCutEvery severs the live connection on every Nth client wire op —
// a deterministic schedule, identical for both arms, unlike the seeded
// probabilistic chaos injector the soak tests use.
const churnCutEvery = 64

// churnOpsPerBody is how many wire ops each enrollment body issues; each
// op is one consult of the cut schedule and, on the resumption-on arm,
// one op the healed session must still answer correctly.
const churnOpsPerBody = 4

// churnFaults is a deterministic remote.NetFaults: no delays, stalls, or
// overloads — only a connection cut on every churnCutEvery-th client op.
type churnFaults struct {
	ops  atomic.Uint64
	cuts atomic.Uint64
}

func (f *churnFaults) FrameDelay() time.Duration     { return 0 }
func (f *churnFaults) DropConn() bool                { return false }
func (f *churnFaults) StallHeartbeat() time.Duration { return 0 }
func (f *churnFaults) Overload() bool                { return false }
func (f *churnFaults) CutConn() bool {
	if f.ops.Add(1)%churnCutEvery == 0 {
		f.cuts.Add(1)
		return true
	}
	return false
}

// runChurn runs the same fixed-duration churn drive twice under an
// identical deterministic cut schedule — once with the host parking broken
// conversations for a 5s resume window, once with resumption off. The
// on-arm must fail no enrollment (every blip heals invisibly, mid-flight
// ops included); the off arm must fail some (each cut kills the
// multiplexed connection and all work riding it), the counterfactual that
// proves the cuts are real. The headline is the on-arm per-completion
// cost, the baseline the off arm's, so delta_pct is what resumption costs
// (or buys back) in goodput under churn.
func runChurn(s Spec) Result {
	res := s.result(testing.BenchmarkResult{})
	on, off := churnPoint(true), churnPoint(false)
	res.Churn = []ChurnPoint{on, off}
	res.Iterations, res.NsPerOp = int(on.Completed), perCompletion(on.Throughput)
	res.compare(perCompletion(off.Throughput))
	return res
}

func churnPoint(resume bool) ChurnPoint {
	hcfg := remote.HostConfig{}
	if resume {
		hcfg.ResumeWindow = 5 * time.Second
	}
	in, h := slotHost(hcfg)
	faults := &churnFaults{}
	// Cuts are consulted at the client's op entry, so the enroller carries
	// the schedule. No retry policy: a failed enrollment is lost goodput in
	// both arms.
	enr := remote.NewEnroller(h.Addr().String(), remote.EnrollerConfig{Faults: faults, Breaker: noBreaker})
	resumedBefore := metrics.Get(metrics.SessionsResumed).Load()
	// Each body op is a query over the wire — a cut consult point on the
	// way out and, when the cut fires, an in-flight op the resumed session
	// must complete exactly once.
	w := drive(enr.Enroll, churnClients, churnWindow, func(rc core.Ctx) error {
		for i := 0; i < churnOpsPerBody; i++ {
			rc.Filled(ids.Role("only"))
		}
		return nil
	})
	enr.Close()
	h.Close()
	in.Close()
	pt := ChurnPoint{
		Resume:       resume,
		Attempted:    w.attempted,
		Completed:    w.completed,
		Failed:       w.failed,
		Cuts:         faults.cuts.Load(),
		Resumed:      metrics.Get(metrics.SessionsResumed).Load() - resumedBefore,
		Throughput:   w.throughput,
		P99LatencyMS: ms(w.p99),
	}
	if pt.Attempted > 0 {
		pt.FailureRatePct = float64(pt.Failed) / float64(pt.Attempted) * 100
	}
	return pt
}

// perCompletion converts a completion rate to ns per completion.
func perCompletion(throughput float64) float64 {
	if throughput <= 0 {
		return 0
	}
	return 1e9 / throughput
}

// samplingRate is the sampled fraction of the sampling-overhead entry:
// production-shaped, low enough that nearly every op takes the sampler's
// rejection fast path.
const samplingRate = 0.001

// samplingRounds is how many interleaved (untraced, sampled) pairs the
// sampling-overhead entry measures per workload; each cell reports its
// fastest round. The workloads are scheduler-bound and their run-to-run
// spread is wider than the effect under test, so a single pair would gate
// CI on noise — the minimum is the run least disturbed by the machine, for
// both configurations alike.
const samplingRounds = 7

// runSampling runs the star-broadcast-64 and contended-enrollment-64
// workloads untraced and with 0.1% probability-sampled tracing behind an
// async ring, the production observability configuration. The headline is
// the sampled star broadcast against its untraced baseline — delta_pct
// within noise is the claim that always-on sampling costs nothing on
// unsampled performances.
//
// The whole entry runs under a raised GOGC (for both configurations
// alike): the star broadcast keeps only a few MB live while allocating
// hundreds of MB/s, a regime where any perturbation of the GC pacer —
// even the tracer's resident ring — shows up as extra mark cycles worth
// a couple percent. Production heaps are nowhere near that sensitivity,
// so the damped-GC comparison is the representative one; the contended
// cells, which are allocation-light, measure the undamped scheduler path.
func runSampling(s Spec) Result {
	oldGC := debug.SetGCPercent(400)
	defer debug.SetGCPercent(oldGC)
	measure := func(body func(b *testing.B, opts ...core.Option)) (plain, sampled testing.BenchmarkResult, deltas []float64) {
		// Each timed run starts from a collected heap: whichever config runs
		// second in a pair would otherwise inherit the first run's garbage
		// and GC pacing, a systematic handicap the paired delta would read
		// as sampling overhead.
		runPlain := func() testing.BenchmarkResult {
			runtime.GC()
			return testing.Benchmark(func(b *testing.B) { body(b) })
		}
		runSampled := func() testing.BenchmarkResult {
			async := trace.NewAsync(&trace.Log{}, 0)
			defer async.Close()
			runtime.GC()
			return testing.Benchmark(func(b *testing.B) {
				body(b, core.WithTracer(async), core.WithSampler(trace.NewProbabilitySampler(samplingRate, 10)))
			})
		}
		deltas = make([]float64, 0, samplingRounds)
		for r := 0; r < samplingRounds; r++ {
			// Alternate which configuration goes first so warm-up and drift
			// don't systematically favor one side of the comparison.
			var p, sp testing.BenchmarkResult
			if r%2 == 0 {
				p, sp = runPlain(), runSampled()
			} else {
				sp, p = runSampled(), runPlain()
			}
			if ns := nsPerOp(p); ns > 0 {
				deltas = append(deltas, (ns-nsPerOp(sp))/ns*100)
			}
			if r == 0 || nsPerOp(p) < nsPerOp(plain) {
				plain = p
			}
			if r == 0 || nsPerOp(sp) < nsPerOp(sampled) {
				sampled = sp
			}
		}
		return plain, sampled, deltas
	}
	starPlain, starSampled, starDeltas := measure(func(b *testing.B, opts ...core.Option) {
		Broadcast(b, patterns.StarBroadcast(64), 64, opts...)
	})
	contPlain, contSampled, contDeltas := measure(func(b *testing.B, opts ...core.Option) {
		contended(b, 64, opts...)
	})

	res := s.result(starSampled)
	res.compare(nsPerOp(starPlain))
	// delta_pct is the gated number: the median of every per-round paired
	// (untraced − sampled) delta across both workloads. Pairing cancels
	// machine drift within a round and the median discards disturbed
	// rounds; pooling the workloads matters because the star broadcast's
	// scheduler-bound runs swing a few percent either way run to run, while
	// a real sampling regression shifts every round of both workloads at
	// once. It is deliberately NOT recomputed from the fastest-round
	// ns_per_op numbers reported alongside, whose minima come from
	// different rounds.
	all := append(starDeltas, contDeltas...)
	sort.Float64s(all)
	if n := len(all); n > 0 {
		res.DeltaPct = all[n/2]
	}
	point := func(workload string, isSampled bool, br testing.BenchmarkResult) SamplingPoint {
		return SamplingPoint{
			Workload:    workload,
			Sampled:     isSampled,
			Iterations:  br.N,
			NsPerOp:     nsPerOp(br),
			AllocsPerOp: br.AllocsPerOp(),
		}
	}
	res.Sampling = []SamplingPoint{
		point("star-broadcast-64", false, starPlain),
		point("star-broadcast-64", true, starSampled),
		point("contended-enrollment-64", false, contPlain),
		point("contended-enrollment-64", true, contSampled),
	}
	return res
}
