package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/scriptabs/goscript/internal/metrics"
)

// procIO is the subset of /proc/self/io the wire ledger reads.
type procIO struct {
	wchar, syscr, syscw uint64
}

// parseProcIO parses /proc/<pid>/io ("name: value" lines).
func parseProcIO(r io.Reader) (procIO, error) {
	var p procIO
	seen := 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		var dst *uint64
		switch name {
		case "wchar":
			dst = &p.wchar
		case "syscr":
			dst = &p.syscr
		case "syscw":
			dst = &p.syscw
		default:
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("proc io: field %s: %w", name, err)
		}
		*dst = n
		seen++
	}
	if err := sc.Err(); err != nil {
		return procIO{}, fmt.Errorf("proc io: %w", err)
	}
	if seen != 3 {
		return procIO{}, fmt.Errorf("proc io: found %d of the 3 fields wchar/syscr/syscw", seen)
	}
	return p, nil
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

// parseProcStat parses the aggregate cpu line of /proc/stat: user nice
// system idle iowait irq softirq steal [guest guest_nice]. Guest time is
// already included in user and nice, so it is not added to the total.
func parseProcStat(r io.Reader) (cpuTimes, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTimes{}, fmt.Errorf("proc stat: cpu line has %d fields, want at least 9", len(f))
		}
		var v [8]uint64
		for i := range v {
			n, err := strconv.ParseUint(f[i+1], 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("proc stat: field %d: %w", i+1, err)
			}
			v[i] = n
		}
		var t cpuTimes
		for _, n := range v {
			t.total += n
		}
		t.steal = v[7]
		return t, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTimes{}, fmt.Errorf("proc stat: %w", err)
	}
	return cpuTimes{}, fmt.Errorf("proc stat: no aggregate cpu line")
}

// stealShare is the share of the host's CPU time stolen by the hypervisor
// between two /proc/stat snapshots.
func stealShare(a, b cpuTimes) float64 {
	tot := delta(a.total, b.total)
	if tot == 0 {
		return 0
	}
	return float64(delta(a.steal, b.steal)) / float64(tot)
}

func readProcFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(f)
}

// snapshot is every counter the benchmark reads at a window boundary.
type snapshot struct {
	at      time.Time
	cpu     time.Duration // process user+sys
	mallocs uint64
	io      procIO
	stat    cpuTimes
	ctr     map[string]uint64
}

func takeSnapshot() (snapshot, error) {
	var s snapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("getrusage: %w", err)
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	var err error
	if s.io, err = readProcFile("/proc/self/io", parseProcIO); err != nil {
		return s, err
	}
	if s.stat, err = readProcFile("/proc/stat", parseProcStat); err != nil {
		return s, err
	}
	s.ctr = metrics.Default.Snapshot()
	s.at = time.Now()
	return s, nil
}

// window is the difference between two snapshots.
type window struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	io      procIO
	steal   float64
	a, b    map[string]uint64
}

func diff(a, b snapshot) window {
	return window{
		wall:    b.at.Sub(a.at),
		cpu:     b.cpu - a.cpu,
		mallocs: delta(a.mallocs, b.mallocs),
		io: procIO{
			wchar: delta(a.io.wchar, b.io.wchar),
			syscr: delta(a.io.syscr, b.io.syscr),
			syscw: delta(a.io.syscw, b.io.syscw),
		},
		steal: stealShare(a.stat, b.stat),
		a:     a.ctr,
		b:     b.ctr,
	}
}

// counter is a metrics.Default counter's delta over the window.
func (w window) counter(name string) uint64 { return delta(w.a[name], w.b[name]) }

// cpuUtil is the process's CPU use over the window as a share of all the
// machine's CPUs.
func (w window) cpuUtil() float64 {
	if w.wall <= 0 {
		return 0
	}
	return float64(w.cpu) / float64(w.wall) / float64(runtime.NumCPU())
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports ru_maxrss in KiB
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
