// Package perfbench is the benchmark catalog: every performance workload of
// the repository, each with exactly one driver, keyed by its name.
// cmd/scriptbench -json runs an entry and writes BENCH_<name>.json; go test
// runs each b.N-shaped entry in this package as BenchmarkCatalog/<name>;
// and the paper-claim benchmarks of the root package (E01–E14) and its
// ablations call the same drivers (Cast, Broadcast, Successive).
//
//	star-broadcast-64               one StarBroadcast(64) performance per op, resident recipients
//	successive-performances         one empty 3-role performance per op (Figure 1's barrier)
//	contended-enrollment-4, -64     n enrollers contend for one role
//	pool-throughput-1x, -4x         64 enrollers through a script.Pool of 1 or 4 instances;
//	                                -4x also records its speedup over one instance
//	fabric-pingpong-fast-vs-slow    fabric ping-pong: fast lane vs forced slow lane
//	fabric-scatter-64               one 64-recipient fabric Scatter vs a loop of serial sends
//	remote-star-broadcast-4, -16    the star broadcast over loopback TCP, multiplexed
//	remote-star-broadcast-64        the same at 64, also recording dedicated connections
//	                                and the in-process star-broadcast-64 workload
//	goodput-under-saturation        1×/2×/4× a host's admission cap, with vs without retry
//	wire-codec-roundtrip            one SEND + OP-RESULT frame pair through the binary codec
//	sampling-overhead               star-broadcast-64 and contended-enrollment-64 with 0.1%
//	                                sampled tracing vs untraced
//	fleet-goodput-scaling           the saturation drive against 1/2/4 registry-announced hosts
//	goodput-under-connection-churn  mid-op connection cuts with vs without a resume window
//
// A b.N-shaped entry runs under testing.Benchmark, so iteration counts are
// chosen the same way `go test -bench` chooses them. An entry with a
// comparison arm measures it in the same run and records it as
// baseline_ns_per_op, with delta_pct the headline's gain over it (positive
// = faster). The saturation, fleet and churn entries drive fixed-duration
// closed-loop load instead of b.N iterations and report per-point arrays.
package perfbench

import (
	"runtime"
	"testing"

	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/remote"
)

// Result is one measurement, serialized to BENCH_<name>.json.
type Result struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	Enrollers   int     `json:"enrollers"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	// pool-throughput-4x only: the single-instance run the pool is
	// compared against.
	SingleNsPerOp float64 `json:"single_instance_ns_per_op,omitempty"`
	Speedup       float64 `json:"speedup,omitempty"`

	// The entry's comparison arm, measured in the same run (the forced
	// slow lane, the serial sends, dedicated connections, untraced runs,
	// the single-host fleet, resumption off), and the headline's gain over
	// it in percent, positive = faster.
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	DeltaPct        float64 `json:"delta_pct,omitempty"`

	// remote-star-broadcast-64 only: the identical workload without the
	// wire (star-broadcast-64), and RemoteRatio = ns_per_op / in-process —
	// the explicit "cost of the remote boundary" multiplier.
	InProcessNsPerOp float64 `json:"in_process_ns_per_op,omitempty"`
	RemoteRatio      float64 `json:"remote_over_in_process_ratio,omitempty"`

	// goodput-under-saturation only: one entry per offered-load point. The
	// headline ns_per_op is the 4×-cap-with-retry point's per-completed-
	// enrollment cost.
	Saturation []SaturationPoint `json:"saturation,omitempty"`

	// sampling-overhead only: each workload measured untraced and with
	// 0.1% sampled tracing. The headline ns_per_op is the sampled star
	// broadcast, the baseline the untraced one.
	Sampling []SamplingPoint `json:"sampling,omitempty"`

	// fleet-goodput-scaling only: one entry per fleet size. The headline
	// ns_per_op is the largest fleet's per-completion cost; scaling_vs_single
	// on each point is its aggregate goodput over the single-host point's.
	Fleet []FleetPoint `json:"fleet,omitempty"`

	// goodput-under-connection-churn only: the identical drive run with
	// session resumption on and off. The headline ns_per_op is the
	// resumption-on arm's per-completion cost, the baseline the off arm's.
	Churn []ChurnPoint `json:"churn,omitempty"`
}

// SaturationPoint is one goodput-under-saturation load point: LoadFactor ×
// the host's admission cap of concurrent remote enrollers hammering a
// capped single-role script, with or without the client retry policy.
// Attempted counts application-level operations; without retry a shed
// attempt fails outright (Failed, lost goodput), with retry sheds are
// absorbed by backoff and every attempt completes. Shed is the host-side
// ErrOverloaded rejection count (with retry on, one attempt may bounce
// several times). Throughput and p99 latency cover completed attempts only.
type SaturationPoint struct {
	LoadFactor   int     `json:"load_factor"`
	Retry        bool    `json:"retry"`
	Attempted    uint64  `json:"attempted"`
	Completed    uint64  `json:"completed"`
	Failed       uint64  `json:"failed"`
	Shed         uint64  `json:"shed"`
	Throughput   float64 `json:"throughput_per_sec"`
	P99LatencyMS float64 `json:"p99_latency_ms"`
}

// FleetPoint is one fleet-goodput-scaling fleet size: a fixed client
// population drives sleep-bound single-role enrollments through a
// registry-backed enroller at N capped hosts. Goodput is
// slot-capacity-bound (each host admits fleetCap concurrent enrollments of
// a fixed service time), so aggregate throughput must scale with the fleet
// and ScalingVsSingle is the headline claim. MinHostShare is the
// least-used host's fraction of completions — 1/N is perfectly even, near
// 0 means the balancer hot-spotted.
type FleetPoint struct {
	Hosts           int     `json:"hosts"`
	Clients         int     `json:"clients"`
	Attempted       uint64  `json:"attempted"`
	Completed       uint64  `json:"completed"`
	Failed          uint64  `json:"failed"`
	Shed            uint64  `json:"shed"`
	Throughput      float64 `json:"throughput_per_sec"`
	ScalingVsSingle float64 `json:"scaling_vs_single,omitempty"`
	MinHostShare    float64 `json:"min_host_share"`
}

// ChurnPoint is one goodput-under-connection-churn arm: churnClients
// concurrent remote enrollers drive single-role enrollments whose bodies
// each issue churnOpsPerBody wire ops, while a deterministic fault
// schedule severs the live connection on every churnCutEvery-th client op
// — the same schedule for both arms. With a resume window open every cut
// heals invisibly (Failed must be 0); with resumption off each cut kills
// the multiplexed connection and every enrollment riding it, so Failed
// must be > 0. Throughput and p99 latency cover completed enrollments
// only; FailureRatePct = Failed/Attempted.
type ChurnPoint struct {
	Resume         bool    `json:"resume"`
	Attempted      uint64  `json:"attempted"`
	Completed      uint64  `json:"completed"`
	Failed         uint64  `json:"failed"`
	Cuts           uint64  `json:"cuts"`
	Resumed        uint64  `json:"sessions_resumed"`
	Throughput     float64 `json:"throughput_per_sec"`
	FailureRatePct float64 `json:"failure_rate_pct"`
	P99LatencyMS   float64 `json:"p99_latency_ms"`
}

// SamplingPoint is one sampling-overhead cell: a core workload run
// untraced or with a 0.1% probability sampler feeding an async-ring tracer.
type SamplingPoint struct {
	Workload    string  `json:"workload"`
	Sampled     bool    `json:"sampled"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Spec is one catalog entry.
type Spec struct {
	Name        string
	Description string
	Enrollers   int
	// Bench is the entry's b.N-shaped body (its headline arm), nil for an
	// entry that is not one: go test runs it as BenchmarkCatalog/<Name>.
	Bench func(*testing.B)
	// run, when set, measures the entry (comparison arms, fixed-window
	// drives); otherwise Run measures Bench alone.
	run func(Spec) Result
}

// Run measures the entry.
func (s Spec) Run() Result {
	if s.run != nil {
		return s.run(s)
	}
	return s.result(testing.Benchmark(s.Bench))
}

// Suite returns the catalog.
func Suite() []Spec {
	return []Spec{
		{
			Name:        "star-broadcast-64",
			Description: "one StarBroadcast(64) performance per op with resident recipients",
			Enrollers:   64,
			Bench:       func(b *testing.B) { Broadcast(b, patterns.StarBroadcast(64), 64) },
		},
		{
			Name:        "successive-performances",
			Description: "one empty 3-role performance per op (successive-activations barrier)",
			Enrollers:   3,
			Bench:       Successive,
		},
		{
			Name:        "contended-enrollment-4",
			Description: "4 concurrent enrollers contend for one role; ns/op is per-performance scheduler cost",
			Enrollers:   4,
			Bench:       func(b *testing.B) { contended(b, 4) },
		},
		{
			Name:        "contended-enrollment-64",
			Description: "64 concurrent enrollers contend for one role; ns/op is per-performance scheduler cost",
			Enrollers:   64,
			Bench:       func(b *testing.B) { contended(b, 64) },
		},
		{
			Name:        "pool-throughput-1x",
			Description: "64 enrollers drive blocking single-role performances through a Pool of 1 instance",
			Enrollers:   64,
			Bench:       func(b *testing.B) { pool(b, 1) },
		},
		{
			Name:        "pool-throughput-4x",
			Description: "64 enrollers drive blocking single-role performances through a Pool of 4 vs 1 instance",
			Enrollers:   64,
			Bench:       func(b *testing.B) { pool(b, 4) },
			run: func(s Spec) Result {
				res := s.result(testing.Benchmark(s.Bench))
				res.SingleNsPerOp = nsPerOp(testing.Benchmark(func(b *testing.B) { pool(b, 1) }))
				if res.NsPerOp > 0 {
					res.Speedup = res.SingleNsPerOp / res.NsPerOp
				}
				return res
			},
		},
		{
			Name:        "fabric-pingpong-fast-vs-slow",
			Description: "8 concurrent fabric ping-pong pairs; baseline is the same workload with the fast lane forced off (GOMAXPROCS>=4)",
			Enrollers:   16,
			Bench:       func(b *testing.B) { pingPong(b, 8, false) },
			run: func(s Spec) Result {
				return s.withMinProcs(4, func(b *testing.B) { pingPong(b, 8, true) })
			},
		},
		{
			Name:        "fabric-scatter-64",
			Description: "one 64-recipient fabric Scatter per op; baseline is a loop of 64 serial sends (GOMAXPROCS>=4)",
			Enrollers:   64,
			Bench:       func(b *testing.B) { scatter(b, 64, false) },
			run: func(s Spec) Result {
				return s.withMinProcs(4, func(b *testing.B) { scatter(b, 64, true) })
			},
		},
		{
			Name:        "remote-star-broadcast-4",
			Description: "one StarBroadcast(4) performance per op with every role enrolled over loopback TCP (multiplexed)",
			Enrollers:   5,
			Bench:       func(b *testing.B) { remoteStar(b, 4, remote.EnrollerConfig{}) },
		},
		{
			Name:        "remote-star-broadcast-16",
			Description: "one StarBroadcast(16) performance per op with every role enrolled over loopback TCP (multiplexed)",
			Enrollers:   17,
			Bench:       func(b *testing.B) { remoteStar(b, 16, remote.EnrollerConfig{}) },
		},
		{
			Name:        "remote-star-broadcast-64",
			Description: "one StarBroadcast(64) performance per op with every role enrolled over loopback TCP (multiplexed); baseline is the same workload with a dedicated connection per enrollment; remote_over_in_process_ratio compares against the in-process star-broadcast-64 workload",
			Enrollers:   65,
			Bench:       func(b *testing.B) { remoteStar(b, 64, remote.EnrollerConfig{}) },
			run: func(s Spec) Result {
				res := s.result(testing.Benchmark(s.Bench))
				res.compare(nsPerOp(testing.Benchmark(func(b *testing.B) {
					remoteStar(b, 64, remote.EnrollerConfig{MaxStreamsPerConn: 1})
				})))
				res.InProcessNsPerOp = nsPerOp(testing.Benchmark(func(b *testing.B) {
					Broadcast(b, patterns.StarBroadcast(64), 64)
				}))
				if res.InProcessNsPerOp > 0 {
					res.RemoteRatio = res.NsPerOp / res.InProcessNsPerOp
				}
				return res
			},
		},
		{
			Name:        "goodput-under-saturation",
			Description: "remote single-role enrollments at 1x/2x/4x the host's admission cap, with vs. without client retry; per-point completed throughput and p99 latency",
			Enrollers:   4 * saturationCap,
			run:         runSaturation,
		},
		{
			Name:        "wire-codec-roundtrip",
			Description: "encode+decode one SEND op frame and its OP-RESULT reply through the binary codec",
			Enrollers:   1,
			Bench:       codec,
		},
		{
			Name:        "sampling-overhead",
			Description: "star-broadcast-64 and contended-enrollment-64 with 0.1% probability-sampled tracing vs untraced; headline is the sampled star broadcast, baseline the untraced one",
			Enrollers:   64,
			run:         runSampling,
		},
		{
			Name:        "fleet-goodput-scaling",
			Description: "the goodput-under-saturation drive against 1/2/4 registry-announced hosts (admission cap 4 each, sleep-bound bodies) through a registry-backed round-robin enroller; per-point aggregate goodput and scaling vs the single-host point",
			Enrollers:   fleetClients,
			run:         runFleet,
		},
		{
			Name:        "goodput-under-connection-churn",
			Description: "remote single-role enrollments under a deterministic schedule of mid-op connection cuts (one per 64 client wire ops), with a 5s resume window vs with resumption off; per-arm goodput and enrollment failure rate, identical cut schedule in both arms",
			Enrollers:   churnClients,
			run:         runChurn,
		},
	}
}

// result is the entry's Result with br as its headline measurement.
func (s Spec) result(br testing.BenchmarkResult) Result {
	return Result{
		Name:        s.Name,
		Description: s.Description,
		Enrollers:   s.Enrollers,
		Iterations:  br.N,
		NsPerOp:     nsPerOp(br),
		AllocsPerOp: br.AllocsPerOp(),
	}
}

// compare records baseNs as the comparison arm.
func (r *Result) compare(baseNs float64) {
	r.BaselineNsPerOp = baseNs
	if baseNs > 0 {
		r.DeltaPct = (baseNs - r.NsPerOp) / baseNs * 100
	}
}

// withMinProcs measures Bench and then its comparison arm base with
// GOMAXPROCS raised to at least n (never lowered): the fabric's lane
// comparison is about lock contention, which a single-scheduler-thread run
// cannot exhibit.
func (s Spec) withMinProcs(n int, base func(*testing.B)) Result {
	if old := runtime.GOMAXPROCS(0); old < n {
		runtime.GOMAXPROCS(n)
		defer runtime.GOMAXPROCS(old)
	}
	res := s.result(testing.Benchmark(s.Bench))
	res.compare(nsPerOp(testing.Benchmark(base)))
	return res
}

func nsPerOp(br testing.BenchmarkResult) float64 {
	if br.N <= 0 {
		return 0
	}
	return float64(br.T.Nanoseconds()) / float64(br.N)
}
