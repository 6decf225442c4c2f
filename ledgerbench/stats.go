package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile with fewer samples past it is decided by a handful of outliers.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted and
// how many samples lie strictly beyond it. sorted must be ascending and
// non-empty.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i], len(sorted) - 1 - i
}

// tailLadder is the set of percentiles the benchmark reports a tail at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// highestTail returns the highest percentile of tailLadder that still has
// minTail samples beyond it among n samples, or 0 when not even the median
// has.
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n < 1 {
			break
		}
		i := int(math.Ceil(p*float64(n))) - 1
		if n-1-i >= minTail {
			best = p
		}
	}
	return best
}

// dist is a finished sample set, sorted ascending.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// at returns the p-quantile, or 0 for an empty set.
func (d dist) at(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	v, _ := percentile(d, p)
	return v
}

// tailOK reports whether the p-quantile has minTail samples beyond it.
func (d dist) tailOK(p float64) bool {
	if len(d) == 0 {
		return false
	}
	_, beyond := percentile(d, p)
	return beyond >= minTail
}

func (d dist) max() float64 {
	if len(d) == 0 {
		return 0
	}
	return d[len(d)-1]
}

// calmest returns the indices, ascending, of the k windows with the least
// steal; ties go to the earlier window.
func calmest(steal []float64, k int) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:min(k, len(idx))]
	sort.Ints(idx)
	return idx
}

// pick returns xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// us converts a duration to microseconds with full precision.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perOp normalises a counter delta by the number of completed ops; a window
// that completed nothing reports 0 rather than dividing by zero.
func perOp(delta uint64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(delta) / float64(ops)
}

// delta is after-before for a monotonic counter, 0 if the counter went
// backwards (a reset between snapshots).
func delta(before, after uint64) uint64 {
	if after < before {
		return 0
	}
	return after - before
}

// interval is a half-open [start, end) span of monotonic nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping parts once.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent.start, parent.end, children)
}
