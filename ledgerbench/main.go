// Command ledgerbench is the repository's benchmark. It runs one named
// workload against the script runtime for a fixed number of seconds,
// checks the outputs, and prints the end-to-end metrics (untraced run) or
// the per-layer ledger (traced run) as the last line of standard output.
//
//	go build -o ledgerbench . && ./ledgerbench -workload star-local -seed 1 -seconds 10 -trace 0
//
// METRICS.md explains why each workload exists and which end-to-end metric
// each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scriptabs/goscript/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const (
	// A run builds its cast setupCold times uncounted, then setupReps times
	// counted; setup_s is the median of the counted ones, and the last cast
	// built is the one measured. The first set-ups of a process run slower
	// while the heap and the runtime's goroutine and stack caches grow; with
	// them in, the median varied by a third from run to run.
	setupCold = 30
	setupReps = 101
	// warmup is discarded load before the timed phase: connection pools,
	// fabric pools and the heap reach steady state.
	warmup = 1500 * time.Millisecond
	// leakWait bounds how long teardown may take to bring the goroutine
	// count back to its pre-workload baseline.
	leakWait = 5 * time.Second
	// windows is how many equal windows the untraced phase is cut into.
	// Each end-to-end metric is computed per window, and the run reports the
	// median over the calmWindows windows in which the host stole the least
	// CPU: a burst of steal on the shared host spoils a window, not the run.
	windows     = 6
	calmWindows = 3
	// ledgerTolerance is the ROADMAP ledger rule: layer self times must sum
	// to within 10% of the traced op latency.
	ledgerTolerance = 0.10
)

// workloads maps each workload name to its cast builder.
var workloads = map[string]func(*harness) (cast, error){
	"star-local":  func(h *harness) (cast, error) { return newStar(h, false) },
	"star-remote": func(h *harness) (cast, error) { return newStar(h, true) },
}

// cast is a ready set of role-players plus the load that drives them.
type cast interface {
	// load drives ops until the harness clock reaches phDone, then returns
	// once every op it started has finished.
	load()
	// teardown releases the residents and closes every instance, host and
	// enroller; outputs are verified after it returns.
	teardown() error
	// verify reports output checks that can only be made after teardown.
	verify()
	// shape describes the script for the match and codec probes.
	shape() probeShape
	// instances are the script instances whose pending offers are sampled.
	instances() []*core.Instance
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	commit   string
	spansDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledgerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced run")
	fs.StringVar(&cfg.commit, "commit", "unknown", "source revision recorded with the run")
	fs.StringVar(&cfg.spansDir, "spans-dir", ".ledgerbench/spans", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	build, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "ledgerbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	case cfg.seconds < 1:
		fmt.Fprintln(stderr, "ledgerbench: -seconds must be at least 1")
		return 2
	case traceFlag != 0 && traceFlag != 1:
		fmt.Fprintln(stderr, "ledgerbench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = traceFlag == 1

	res, err := execute(cfg, build)
	if err != nil {
		fmt.Fprintf(stderr, "ledgerbench: %v\n", err)
		return 1
	}
	ctxLine, _ := json.Marshal(map[string]any{"context": res.context})
	fmt.Fprintln(stdout, string(ctxLine))
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "ledgerbench: check failed: %s\n", f)
	}
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintf(stderr, "ledgerbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.result.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Phases of a run. Ops are attributed to the phase in which they start.
const (
	phWarmup int32 = iota
	phUntraced
	phTraced
	phDone
	nPhases
)

// opRec is one op: when it started, as an offset from the start of the
// load, its latency and its outcome.
type opRec struct {
	at  time.Duration
	lat float64 // microseconds
	ok  bool
}

// opStats is the record of one phase.
type opStats []opRec

func (s opStats) counts() (ok, failed int) {
	for _, r := range s {
		if r.ok {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}

func (s opStats) lats() []float64 {
	out := make([]float64, len(s))
	for i, r := range s {
		out[i] = r.lat
	}
	return out
}

// harness is the state a cast shares with the run: clock, recorder,
// failures and op IDs.
type harness struct {
	cfg   config
	phase atomic.Int32
	// rec is nil in an untraced run; in a traced run it records only while
	// the phase is phTraced.
	rec *recorder
	// ctx bounds every call into the program: a watchdog cancels it when a
	// run overstays, so a hang fails the run instead of blocking it.
	ctx context.Context
	// start is when load began; phase boundaries are offsets from it.
	start time.Time

	opSeq atomic.Uint64

	mu       sync.Mutex
	failures []string
	stats    [nPhases]opStats
	pending  []float64 // PendingOffers samples of the traced phase
}

func (h *harness) fail(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.failures) < 20 {
		h.failures = append(h.failures, fmt.Sprintf(format, args...))
	}
}

func (h *harness) addStats(ph int32, s opStats) {
	h.mu.Lock()
	h.stats[ph] = append(h.stats[ph], s...)
	h.mu.Unlock()
}

// tracing reports whether an op starting now records spans.
func (h *harness) tracing() bool {
	return h.rec != nil && h.phase.Load() == phTraced
}

func (h *harness) nextOp() uint64 { return h.opSeq.Add(1) }

// schedule returns the phase boundaries of the timed part of a run,
// relative to the start of the load.
func (h *harness) schedule() (untracedEnd, tracedEnd time.Duration) {
	total := time.Duration(h.cfg.seconds) * time.Second
	if !h.cfg.trace {
		return warmup + total, warmup + total
	}
	return warmup + total/2, warmup + total
}

// windowLen is the length of each of the untraced phase's windows.
func (h *harness) windowLen() time.Duration {
	untracedEnd, _ := h.schedule()
	return (untracedEnd - warmup) / windows
}

// outcome is everything a finished run reports.
type outcome struct {
	result   result
	context  map[string]any
	failures []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func execute(cfg config, build func(*harness) (cast, error)) (*outcome, error) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := &harness{cfg: cfg, ctx: ctx}
	if cfg.trace {
		rec, err := newRecorder()
		if err != nil {
			return nil, err
		}
		defer rec.close()
		h.rec = rec
	}
	// A run must end within 180 seconds. One still going well past its own
	// schedule is hung, so its calls fail rather than block.
	watchdog := time.AfterFunc(time.Duration(cfg.seconds)*time.Second+90*time.Second, cancel)
	defer watchdog.Stop()

	c, su, err := setUp(h, build, baseline)
	if err != nil {
		return nil, err
	}

	snaps, err := drive(h, c)
	if err != nil {
		_ = c.teardown()
		return nil, err
	}
	if err := c.teardown(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	c.verify()
	after := waitGoroutines(baseline, leakWait)
	if after > baseline {
		h.fail("goroutines: %d after teardown, %d before the workload", after, baseline)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	o := &outcome{context: map[string]any{
		"workload":            cfg.workload,
		"seed":                cfg.seed,
		"seconds":             cfg.seconds,
		"trace":               cfg.trace,
		"nproc":               runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"go_version":          runtime.Version(),
		"godebug":             os.Getenv("GODEBUG"),
		"commit":              cfg.commit,
		"cpu_model":           cpuModel(),
		"setup_s_first":       su.first,
		"setup_s_each":        su.each,
		"goroutines_baseline": baseline,
		"goroutines_after":    after,
	}}
	untraced := diff(snaps[0], snaps[windows])
	o.context["steal_share"] = untraced.steal
	o.context["process_cpu_util"] = untraced.cpuUtil()

	un := h.stats[phUntraced]
	ok, failed := un.counts()
	o.result.Attempted, o.result.Failed = ok+failed, failed
	if cfg.trace {
		tr := h.stats[phTraced]
		ok, failed := tr.counts()
		o.result.Attempted += ok + failed
		o.result.Failed += failed
		traced := diff(snaps[windows], snaps[windows+1])
		o.context["traced_steal_share"] = traced.steal
		o.context["traced_process_cpu_util"] = traced.cpuUtil()
		o.result.Metrics, err = layerMetrics(h, c.shape(), traced, un, tr, o.context)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.tsv", cfg.workload, cfg.seed))
		if err := h.rec.writeSpans(path); err != nil {
			return nil, err
		}
		o.context["spans_file"] = path
		o.context["spans"] = len(h.rec.spans)
	} else {
		o.result.Metrics = endToEnd(h, un, snaps, median(su.each), rss, o.context)
	}
	o.failures = h.failures
	o.result.Correct = len(h.failures) == 0
	o.context["checks_failed"] = h.failures
	return o, nil
}

// setups records a run's set-up times in seconds.
type setups struct {
	first float64   // the process's first set-up
	each  []float64 // the counted set-ups, in order
}

// setUp builds the cast setupCold+setupReps times and returns the last cast
// built.
func setUp(h *harness, build func(*harness) (cast, error), baseline int) (cast, *setups, error) {
	su := &setups{}
	var c cast
	for i := 0; i < setupCold+setupReps; i++ {
		t0 := time.Now()
		var err error
		if c, err = build(h); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		if i == 0 {
			su.first = d
		}
		if i >= setupCold {
			su.each = append(su.each, d)
		}
		if i == setupCold+setupReps-1 {
			break
		}
		if err := c.teardown(); err != nil {
			return nil, nil, fmt.Errorf("set-up teardown: %w", err)
		}
		// Connections and streams of the torn-down cast close
		// asynchronously; each set-up starts from a quiet process.
		waitGoroutines(baseline, leakWait)
	}
	return c, su, nil
}

// drive runs the cast's load through warm-up and the timed phases and
// returns the counter snapshots at the window boundaries of the untraced
// phase, then (traced run) at the end of the traced phase.
func drive(h *harness, c cast) ([]snapshot, error) {
	h.phase.Store(phWarmup)
	start := time.Now()
	h.start = start
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.load()
	}()
	if h.rec != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samplePending(h, c.instances())
		}()
	}
	defer func() {
		h.phase.Store(phDone)
		wg.Wait()
	}()
	_, tracedEnd := h.schedule()
	snaps := make([]snapshot, 0, windows+2)
	for i := 0; i <= windows; i++ {
		sleepUntil(start.Add(warmup + time.Duration(i)*h.windowLen()))
		s, err := takeSnapshot()
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, s)
		if i == 0 {
			h.phase.Store(phUntraced)
		}
	}
	if h.cfg.trace {
		h.phase.Store(phTraced)
		sleepUntil(start.Add(tracedEnd))
		s, err := takeSnapshot()
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, s)
	}
	return snaps, nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// waitGoroutines polls until the goroutine count is back to baseline or
// the wait runs out, and returns the last count.
func waitGoroutines(baseline int, wait time.Duration) int {
	deadline := time.Now().Add(wait)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func median(xs []float64) float64 {
	return newDist(xs).at(0.5)
}

// endToEnd computes the untraced run's metrics: each is computed per
// window and reported as the median over the calm windows, except
// success_share, peak_rss_mb and setup_s, which belong to the whole run. The
// ungated p99 is the whole run's too: a window under heavy steal can hold
// too few ops to leave 10 beyond its own p99.
func endToEnd(h *harness, st opStats, snaps []snapshot, setup, rss float64, ctx map[string]any) map[string]metric {
	winLen := h.windowLen()
	byWin := make([]opStats, windows)
	for _, r := range st {
		i := min(max(int((r.at-warmup)/winLen), 0), windows-1)
		byWin[i] = append(byWin[i], r)
	}
	var thr, p50, cpu, allocs, steal []float64
	for i, w := range byWin {
		ok, _ := w.counts()
		lat := newDist(w.lats())
		win := diff(snaps[i], snaps[i+1])
		thr = append(thr, float64(ok)/win.wall.Seconds())
		p50 = append(p50, lat.at(0.5))
		cpu = append(cpu, perOpDur(win.cpu, ok))
		allocs = append(allocs, perOp(win.mallocs, ok))
		steal = append(steal, win.steal)
	}
	ok, failed := st.counts()
	if ok == 0 {
		h.fail("no op completed in the timed phase")
	}
	all := newDist(st.lats())
	if !all.tailOK(0.99) {
		h.fail("latency_p99_us: %d samples leave fewer than %d beyond p99", len(all), minTail)
	}
	tail := highestTail(len(all))
	ctx["windows"] = windows
	ctx["window_s"] = winLen.Seconds()
	ctx["latency_samples"] = len(all)
	ctx["run_latency_p50_us"] = all.at(0.5)
	ctx["run_tail_percentile"] = tail * 100
	ctx["run_latency_tail_us"] = all.at(tail)
	ctx["window_throughput_per_s"] = thr
	ctx["window_steal_share"] = steal
	use := calmest(steal, calmWindows)
	ctx["windows_used"] = use
	calm := func(xs []float64) float64 { return median(pick(xs, use)) }
	success := float64(ok) / float64(max(ok+failed, 1))
	// Reported with every run but not gated: the tail tracks the host's CPU
	// steal (METRICS.md), and failed_share reads 0 on a healthy run.
	ctx["ungated_metrics"] = map[string]metric{
		"latency_p99_us": {all.at(0.99), "us"},
		"failed_share":   {1 - success, "share"},
	}
	return map[string]metric{
		"throughput_per_s": {calm(thr), "1/s"},
		"latency_p50_us":   {calm(p50), "us"},
		"cpu_us_per_op":    {calm(cpu), "us"},
		"allocs_per_op":    {calm(allocs), "count"},
		"success_share":    {success, "share"},
		"peak_rss_mb":      {rss, "MB"},
		"setup_s":          {setup, "s"},
	}
}

func perOpDur(d time.Duration, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return us(d) / float64(ops)
}

// waitReady polls cond until it holds, giving up after 30s or when the
// harness context ends. How it waits between polls depends on what the
// set-up waits for. An in-process cast yields: a timer wakes an idle process
// up to a millisecond late, which is most of such a set-up. A cast that
// waits on sockets sleeps: a goroutine that only yields keeps its processor
// from polling the network, and the set-up then waits for the runtime's
// background network poll, which runs only every 10 ms.
func waitReady(h *harness, what string, sockets bool, cond func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if h.ctx.Err() != nil || time.Now().After(deadline) {
			return fmt.Errorf("%s: not ready", what)
		}
		if sockets {
			time.Sleep(50 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
	return nil
}
