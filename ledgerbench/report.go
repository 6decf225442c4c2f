package main

import (
	"fmt"
	"math"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/metrics"
)

// pendingEvery is the sampling period of Instance.PendingOffers in a traced
// run.
const pendingEvery = time.Millisecond

// samplePending samples every instance's pending-offer count while the run
// is in its traced phase and hands the samples to layerMetrics.
func samplePending(h *harness, insts []*core.Instance) {
	var samples []float64
	t := time.NewTicker(pendingEvery)
	defer t.Stop()
	for range t.C {
		switch h.phase.Load() {
		case phDone:
			h.mu.Lock()
			h.pending = samples
			h.mu.Unlock()
			return
		case phTraced:
			for _, in := range insts {
				samples = append(samples, float64(in.PendingOffers()))
			}
		}
	}
}

// ledger holds the per-layer self and span times of a traced run, in
// microseconds.
type ledger struct {
	self, dur [nLayers][]float64
	// overhead is remote.op_rtt's self time where its host-side fabric op
	// was correlated: the round trip minus the fabric work under it.
	overhead []float64
	// ops is the number of measured ops with a root span and opUS their
	// summed latency. perLayerUS is the summed self time of each layer below
	// the root; programUS is that sum over the program's layers, which leaves
	// out bench.body, the benchmark's own code.
	ops             int
	opUS, programUS float64
	perLayerUS      [nLayers]float64
}

// buildLedger computes every span's self time: its duration minus the part
// its children (same op, parent = this span) cover.
func buildLedger(spans []span) *ledger {
	byOp := map[uint64][]span{}
	for _, s := range spans {
		byOp[s.op] = append(byOp[s.op], s)
	}
	l := &ledger{}
	for _, group := range byOp {
		var rootUS float64
		hasRoot := false
		var perLayer [nLayers]float64
		for i, s := range group {
			var kids []interval
			hostChild := false
			for j, c := range group {
				if j != i && c.parent == s.layer && c.parentIdx == s.idx {
					kids = append(kids, interval{c.start, c.end})
					hostChild = hostChild || c.layer == lyHostOp
				}
			}
			self := float64(selfTime(interval{s.start, s.end}, kids)) / 1e3
			l.self[s.layer] = append(l.self[s.layer], self)
			l.dur[s.layer] = append(l.dur[s.layer], float64(s.end-s.start)/1e3)
			if s.layer == lyOpRTT && hostChild {
				l.overhead = append(l.overhead, self)
			}
			if s.layer == lyOp {
				hasRoot = true
				rootUS = float64(s.end-s.start) / 1e3
			} else {
				perLayer[s.layer] += self
			}
		}
		if hasRoot {
			l.ops++
			l.opUS += rootUS
			for ly, v := range perLayer {
				l.perLayerUS[ly] += v
				if layer(ly) != lyBody {
					l.programUS += v
				}
			}
		}
	}
	return l
}

// sumShare is the program layers' summed self time as a share of the
// summed op latency. It falls below 1 by the time the op spends in the
// benchmark's own code and in any layer whose span is missing, which both
// count as bench.body self time; it rises above 1 when a child span reaches
// outside its parent's.
func (l *ledger) sumShare() float64 {
	if l.opUS == 0 {
		return 0
	}
	return l.programUS / l.opUS
}

// check applies the ROADMAP ledger rule: the program layers' self times sum
// to within ledgerTolerance of the op latency.
func (l *ledger) check() error {
	if l.ops == 0 {
		return fmt.Errorf("ledger: no traced op recorded a root span")
	}
	if share := l.sumShare(); math.Abs(share-1) > ledgerTolerance {
		return fmt.Errorf("ledger: program layer self times sum to %.3f of the traced op latency, outside 1±%.2f", share, ledgerTolerance)
	}
	return nil
}

// layerMetrics computes the traced run's per-layer metrics from its spans,
// the counter window of the traced phase and the post-teardown probes.
func layerMetrics(h *harness, shape probeShape, w window, un, tr opStats, ctx map[string]any) (map[string]metric, error) {
	l := buildLedger(h.rec.spans)
	self := func(ly layer) dist { return newDist(l.self[ly]) }

	pending := newDist(h.pending)
	depth := int(pending.max())
	findUS, findAllocs, err := probeMatch(shape, depth)
	if err != nil {
		return nil, err
	}
	codecNS, codecAllocs, err := probeCodec(shape)
	if err != nil {
		return nil, err
	}

	fast, slow := w.counter(metrics.FabricFastLaneOps), w.counter(metrics.FabricSlowLaneOps)
	fastShare := 0.0
	if fast+slow > 0 {
		fastShare = float64(fast) / float64(fast+slow)
	}
	ops, _ := tr.counts()
	unP50, trP50 := newDist(un.lats()).at(0.5), newDist(tr.lats()).at(0.5)
	overheadRatio := 0.0
	if unP50 > 0 {
		overheadRatio = trP50 / unP50
	}

	if h.rec.dropped > 0 {
		h.fail("ledger: %d spans dropped beyond the recorder's %d", h.rec.dropped, maxSpans)
	}
	if err := l.check(); err != nil {
		h.fail("%v", err)
	}

	samples := map[string]int{}
	meanSelf := map[string]float64{}
	for ly := layer(0); ly < nLayers; ly++ {
		samples[ly.String()] = len(l.self[ly])
		if l.ops > 0 && ly != lyOp && l.perLayerUS[ly] > 0 {
			meanSelf[ly.String()] = l.perLayerUS[ly] / float64(l.ops)
		}
	}
	samples["remote.op_overhead"] = len(l.overhead)
	samples["pending_offers"] = len(pending)
	ctx["layer_samples"] = samples
	ctx["ledger_ops"] = l.ops
	ctx["ledger_mean_op_us"] = l.opUS / float64(max(l.ops, 1))
	ctx["ledger_mean_self_us"] = meanSelf
	ctx["ledger_sum_share"] = l.sumShare()
	ctx["match_probe_depth"] = max(depth, len(shape.cast))
	ctx["untraced_latency_p50_us"] = unP50
	ctx["traced_ops"] = ops

	return map[string]metric{
		"core.enroll_to_start_p50_us":   {self(lyCoreE2S).at(0.5), "us"},
		"core.enroll_to_start_p99_us":   {self(lyCoreE2S).at(0.99), "us"},
		"core.release_p50_us":           {self(lyCoreRelease).at(0.5), "us"},
		"core.pending_offers_p50":       {pending.at(0.5), "count"},
		"core.pending_offers_max":       {pending.max(), "count"},
		"match.find_us":                 {findUS, "us"},
		"match.find_allocs":             {findAllocs, "count"},
		"rendezvous.sendall_p50_us":     {self(lySendAll).at(0.5), "us"},
		"rendezvous.recv_wait_p50_us":   {self(lyRecvWait).at(0.5), "us"},
		"rendezvous.host_op_p50_us":     {self(lyHostOp).at(0.5), "us"},
		"rendezvous.fast_lane_share":    {fastShare, "share"},
		"remote.enroll_to_start_p50_us": {self(lyRemoteE2S).at(0.5), "us"},
		"remote.enroll_to_start_p99_us": {self(lyRemoteE2S).at(0.99), "us"},
		"remote.op_rtt_p50_us":          {newDist(l.dur[lyOpRTT]).at(0.5), "us"},
		"remote.op_rtt_p99_us":          {newDist(l.dur[lyOpRTT]).at(0.99), "us"},
		"remote.op_overhead_p50_us":     {newDist(l.overhead).at(0.5), "us"},
		"remote.release_p50_us":         {self(lyRemoteRelease).at(0.5), "us"},
		"remote.conns_per_kop":          {1000 * perOp(w.counter(metrics.WireConnsV2), ops), "1/kop"},
		"remote.sheds_per_kop":          {1000 * perOp(w.counter(metrics.RemoteShedEnrollments), ops), "1/kop"},
		"wire.write_syscalls_per_op":    {perOp(w.io.syscw, ops), "1/op"},
		"wire.read_syscalls_per_op":     {perOp(w.io.syscr, ops), "1/op"},
		"wire.bytes_written_per_op":     {perOp(w.io.wchar, ops), "B/op"},
		"wire.codec_ns_per_frame":       {codecNS, "ns"},
		"wire.codec_allocs_per_frame":   {codecAllocs, "count"},
		"ledger.sum_error_share":        {math.Abs(l.sumShare() - 1), "share"},
		"trace.latency_p50_us":          {trP50, "us"},
		"trace.overhead_ratio":          {overheadRatio, "ratio"},
	}, nil
}
