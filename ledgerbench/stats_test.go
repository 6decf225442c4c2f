package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},      // the median leaves only 9 beyond it
		{20, 0.5},    // nearest rank 10 of 20 leaves 10 beyond
		{99, 0.5},    // p90 is rank 90, 9 beyond
		{100, 0.9},   // p90 leaves 10 beyond
		{999, 0.9},   // p99 is rank 990, 9 beyond
		{1000, 0.99}, // p99 leaves exactly 10 beyond
		{10000, 0.999},
		{100000, 0.9999},
	} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		p          float64
		v          float64
		beyond     int
		enoughTail bool
	}{
		{0.5, 500, 500, true},
		{0.99, 990, 10, true},
		{0.999, 999, 1, false},
		{1, 1000, 0, false},
	} {
		v, beyond := percentile(xs, tc.p)
		if v != tc.v || beyond != tc.beyond {
			t.Errorf("percentile(1..1000, %v) = %v with %d beyond, want %v with %d", tc.p, v, beyond, tc.v, tc.beyond)
		}
		if got := dist(xs).tailOK(tc.p); got != tc.enoughTail {
			t.Errorf("tailOK(%v) = %v, want %v", tc.p, got, tc.enoughTail)
		}
	}
	if got := newDist([]float64{3, 1, 2}).at(0.5); got != 2 {
		t.Errorf("median of {3,1,2} = %v, want 2", got)
	}
	if got := newDist(nil).at(0.99); got != 0 {
		t.Errorf("empty dist p99 = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {40, 60}}, 70},
		{"overlapping children count once", []interval{{10, 20}, {15, 30}}, 80},
		{"nested child", []interval{{10, 50}, {20, 30}}, 60},
		{"child past the parent is clipped", []interval{{90, 120}, {-5, 5}}, 85},
		{"child outside the parent", []interval{{100, 150}}, 100},
		{"children cover everything", []interval{{0, 60}, {50, 100}}, 0},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestLedgerSumsToOp builds one remote op the way the recorder sees it and
// checks the self times, the correlated op overhead and the ledger sum: the
// body's own 20ns of the 1000ns op is the part no program layer explains.
func TestLedgerSumsToOp(t *testing.T) {
	spans := []span{
		{op: 1, start: 0, end: 1000, layer: lyOp, parent: noParent},
		{op: 1, start: 0, end: 300, layer: lyRemoteE2S, parent: lyOp},
		{op: 1, start: 100, end: 250, layer: lyCoreE2S, parent: lyRemoteE2S},
		{op: 1, start: 300, end: 800, layer: lyBody, parent: lyOp},
		{op: 1, start: 310, end: 790, layer: lyOpRTT, parent: lyBody},
		{op: 1, start: 400, end: 700, layer: lyHostOp, parent: lyOpRTT},
		{op: 1, start: 800, end: 1000, layer: lyRemoteRelease, parent: lyOp},
		{op: 1, start: 850, end: 900, layer: lyCoreRelease, parent: lyRemoteRelease},
		// A resident's op: an op_rtt with its host op, and no root.
		{op: 2, start: 0, end: 500, layer: lyOpRTT, parent: noParent},
		{op: 2, start: 100, end: 450, layer: lyHostOp, parent: lyOpRTT},
	}
	l := buildLedger(spans)
	if l.ops != 1 {
		t.Fatalf("ledger ops = %d, want 1 (only op 1 has a root)", l.ops)
	}
	if got := l.sumShare(); math.Abs(got-0.98) > 1e-9 {
		t.Errorf("sumShare = %v, want 0.98", got)
	}
	if err := l.check(); err != nil {
		t.Errorf("check: %v", err)
	}
	wantSelf := map[layer]float64{
		lyRemoteE2S: 0.15, lyCoreE2S: 0.15, lyBody: 0.02, lyHostOp: 0.3,
		lyRemoteRelease: 0.15, lyCoreRelease: 0.05,
	}
	for ly, want := range wantSelf {
		if got := l.perLayerUS[ly]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s self = %vus, want %vus", ly, got, want)
		}
	}
	got := newDist(l.overhead)
	if len(got) != 2 || math.Abs(got[0]-0.15) > 1e-9 || math.Abs(got[1]-0.18) > 1e-9 {
		t.Errorf("op overheads = %v, want [0.15 0.18]us", got)
	}
}

// TestLedgerCheckFails checks that the ledger rule rejects an op whose
// layers do not account for it: a missing span leaves its time to the
// benchmark's body, and a child reaching outside its parent counts twice.
func TestLedgerCheckFails(t *testing.T) {
	local := func(sendAllEnd int64) []span {
		return []span{
			{op: 1, start: 0, end: 1000, layer: lyOp, parent: noParent},
			{op: 1, start: 0, end: 100, layer: lyCoreE2S, parent: lyOp},
			{op: 1, start: 100, end: 900, layer: lyBody, parent: lyOp},
			{op: 1, start: 100, end: sendAllEnd, layer: lySendAll, parent: lyBody},
			{op: 1, start: 900, end: 1000, layer: lyCoreRelease, parent: lyOp},
		}
	}
	for _, tc := range []struct {
		name  string
		spans []span
		share float64
		ok    bool
	}{
		{"accounted", local(880), 0.98, true},
		{"within the limit", local(810), 0.91, true},
		{"sendall missing", local(100), 0.2, false},
		{"sendall short", local(700), 0.8, false},
		{"child outside parent", append(local(900),
			span{op: 1, start: 50, end: 300, layer: lyHostOp, parent: lyCoreRelease}), 1.25, false},
		{"no root", local(880)[1:], 0, false},
	} {
		l := buildLedger(tc.spans)
		if got := l.sumShare(); math.Abs(got-tc.share) > 1e-9 {
			t.Errorf("%s: sumShare = %v, want %v", tc.name, got, tc.share)
		}
		if err := l.check(); (err == nil) != tc.ok {
			t.Errorf("%s: check = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}

// TestCalmest checks the choice of the windows the end-to-end metrics are
// taken over: the least-stolen ones, earlier first on ties.
func TestCalmest(t *testing.T) {
	steal := []float64{0.02, 0, 0.3, 0, 0.01, 0.02}
	if got, want := calmest(steal, 3), []int{1, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("calmest = %v, want %v", got, want)
	}
	if got, want := calmest(steal, 4), []int{0, 1, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("calmest(4) = %v, want %v", got, want)
	}
	if got, want := pick([]float64{10, 11, 12, 13, 14, 15}, []int{1, 3, 4}), []float64{11, 13, 14}; !reflect.DeepEqual(got, want) {
		t.Errorf("pick = %v, want %v", got, want)
	}
}

func TestParseProcIO(t *testing.T) {
	const in = `rchar: 3980
wchar: 120
syscr: 9
syscw: 4
read_bytes: 0
write_bytes: 0
cancelled_write_bytes: 0
`
	got, err := parseProcIO(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := (procIO{wchar: 120, syscr: 9, syscw: 4}); got != want {
		t.Errorf("parseProcIO = %+v, want %+v", got, want)
	}
	if _, err := parseProcIO(strings.NewReader("rchar: 1\nwchar: 2\n")); err == nil {
		t.Error("parseProcIO accepted input without syscr/syscw")
	}
	if _, err := parseProcIO(strings.NewReader("wchar: x\nsyscr: 1\nsyscw: 1\n")); err == nil {
		t.Error("parseProcIO accepted a non-numeric field")
	}
}

func TestParseProcStat(t *testing.T) {
	const in = `cpu  100 5 20 800 10 1 4 60 7 0
cpu0 50 2 10 400 5 0 2 30 0 0
intr 12345
`
	got, err := parseProcStat(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := (cpuTimes{total: 1000, steal: 60}); got != want {
		t.Errorf("parseProcStat = %+v, want %+v", got, want)
	}
	later := cpuTimes{total: 1200, steal: 110}
	if s := stealShare(got, later); math.Abs(s-0.25) > 1e-12 {
		t.Errorf("stealShare = %v, want 0.25", s)
	}
	if s := stealShare(got, got); s != 0 {
		t.Errorf("stealShare over an empty interval = %v, want 0", s)
	}
	if _, err := parseProcStat(strings.NewReader("cpu 1 2 3\n")); err == nil {
		t.Error("parseProcStat accepted a short cpu line")
	}
	if _, err := parseProcStat(strings.NewReader("cpu0 1 2 3 4 5 6 7 8\n")); err == nil {
		t.Error("parseProcStat accepted input without the aggregate line")
	}
}

func TestPerOpNormalisation(t *testing.T) {
	a := snapshot{
		at: time.Unix(100, 0), cpu: 2 * time.Second, mallocs: 1000,
		io:  procIO{wchar: 500, syscr: 10, syscw: 20},
		ctr: map[string]uint64{"c": 7},
	}
	b := snapshot{
		at: time.Unix(102, 0), cpu: 3 * time.Second, mallocs: 5000,
		io:  procIO{wchar: 2500, syscr: 410, syscw: 820},
		ctr: map[string]uint64{"c": 9, "new": 3},
	}
	w := diff(a, b)
	const ops = 400
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"allocs/op", perOp(w.mallocs, ops), 10},
		{"write syscalls/op", perOp(w.io.syscw, ops), 2},
		{"read syscalls/op", perOp(w.io.syscr, ops), 1},
		{"bytes written/op", perOp(w.io.wchar, ops), 5},
		{"counter per kop", 1000 * perOp(w.counter("c"), ops), 5},
		{"counter born in the window", perOp(w.counter("new"), ops), 0.0075},
		{"cpu us/op", perOpDur(w.cpu, ops), 2500},
		{"no ops", perOp(w.mallocs, 0), 0},
	} {
		if math.Abs(tc.got-tc.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	if w.wall != 2*time.Second {
		t.Errorf("window wall = %v, want 2s", w.wall)
	}
	if d := delta(10, 4); d != 0 {
		t.Errorf("delta of a counter that went backwards = %d, want 0", d)
	}
}
