package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestRunOnlyFilter runs a single fast experiment end to end through the
// command's own entry point.
func TestRunOnlyFilter(t *testing.T) {
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := run([]string{"-only", "E02", "-timeout", "60s"}, tmp); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "E02") || !strings.Contains(out, "PASS") {
		t.Fatalf("output missing expected content:\n%s", out)
	}
	if strings.Contains(out, "E03") {
		t.Fatal("-only filter leaked other experiments")
	}
}

func TestRunUnknownOnly(t *testing.T) {
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := run([]string{"-only", "E99"}, tmp); err == nil {
		t.Fatal("unknown experiment ID must fail")
	}
}

// TestRunJSONMode runs the fastest catalog entry end to end and checks its
// BENCH file.
func TestRunJSONMode(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-json", "-only", "successive-performances", "-outdir", dir}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	path := dir + "/BENCH_successive-performances.json"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("invalid JSON in %s: %v", path, err)
	}
	if got["name"] != "successive-performances" || got["ns_per_op"].(float64) <= 0 {
		t.Fatalf("unexpected result: %v", got)
	}
}

func TestRunJSONUnknownOnly(t *testing.T) {
	if err := run([]string{"-json", "-only", "no-such-entry", "-outdir", t.TempDir()}, os.Stdout); err == nil {
		t.Fatal("unknown catalog entry must fail")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}, os.Stdout); err == nil {
		t.Fatal("bad flag must fail")
	}
}
