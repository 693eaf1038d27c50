package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadMissingBaseline pins the loud-failure contract: an absent
// baseline is an error (main exits non-zero on it), never a vacuous
// pass.
func TestLoadMissingBaseline(t *testing.T) {
	_, err := load(filepath.Join(t.TempDir(), "BENCH.json"))
	if err == nil {
		t.Fatal("load of a missing baseline returned no error")
	}
	if !os.IsNotExist(err) {
		t.Fatalf("missing baseline error not recognizable as not-exist: %v", err)
	}
}

func bench(pkg, name string, visited float64) benchmark {
	return benchmark{Name: name, Package: pkg, Metrics: map[string]float64{"visited-states": visited}}
}

func TestCompare(t *testing.T) {
	baseline := report{Benchmarks: []benchmark{
		bench("repro", "BenchmarkA-8", 1000),
		bench("repro", "BenchmarkB-8", 200),
		bench("repro", "BenchmarkGone-8", 50),
		{Name: "BenchmarkNoMetric-8", Package: "repro", Metrics: map[string]float64{"ns/op": 123}},
	}}
	fresh := report{Benchmarks: []benchmark{
		bench("repro", "BenchmarkA-8", 1099), // +9.9%: inside tolerance
		bench("repro", "BenchmarkB-8", 260),  // +30%: regression
		bench("repro", "BenchmarkNew-8", 999999),
	}}
	failures, checked := compare(baseline, fresh, "visited-states", 0.10, 50)
	if checked != 3 {
		t.Errorf("checked %d baseline metrics, want 3", checked)
	}
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want the +30%% regression and the disappearance", failures)
	}
	joined := strings.Join(failures, "\n")
	if !strings.Contains(joined, "BenchmarkB-8") || !strings.Contains(joined, "200 -> 260") {
		t.Errorf("missing the BenchmarkB regression: %v", failures)
	}
	if !strings.Contains(joined, "BenchmarkGone-8") || !strings.Contains(joined, "disappeared") {
		t.Errorf("missing the disappearance failure: %v", failures)
	}
	if strings.Contains(joined, "BenchmarkA-8") || strings.Contains(joined, "BenchmarkNew-8") {
		t.Errorf("within-tolerance or new benchmarks flagged: %v", failures)
	}

	// Identical reports pass; small absolute wiggle on tiny counts
	// stays within the +0.5 guard.
	failures, _ = compare(baseline, baseline, "visited-states", 0.10, 50)
	if len(failures) != 0 {
		t.Errorf("self-comparison failed: %v", failures)
	}
	small := report{Benchmarks: []benchmark{bench("repro", "BenchmarkTiny-8", 4)}}
	smallNow := report{Benchmarks: []benchmark{bench("repro", "BenchmarkTiny-8", 4.4)}}
	if failures, _ = compare(small, smallNow, "visited-states", 0.10, 0); len(failures) != 0 {
		t.Errorf("sub-unit wiggle flagged: %v", failures)
	}
}

// TestCompareAbsoluteFloor pins the two tolerance regimes. Small
// deterministic counters jitter by a few dozen states (e.g. a budgeted
// parallel race landing ±31 states apart), which a purely relative
// tolerance fails: 250 -> 281 is +12.4%. The absolute floor forgives
// exactly that — and nothing more — while large counters stay governed
// by the relative tolerance alone.
func TestCompareAbsoluteFloor(t *testing.T) {
	baseline := report{Benchmarks: []benchmark{
		bench("repro", "BenchmarkSmall-8", 250),
		bench("repro", "BenchmarkBig-8", 100000),
	}}

	// Floor regime: +31 states on a 250-state counter passes with the
	// default floor, fails without it.
	jitter := report{Benchmarks: []benchmark{
		bench("repro", "BenchmarkSmall-8", 281),
		bench("repro", "BenchmarkBig-8", 100000),
	}}
	if failures, _ := compare(baseline, jitter, "visited-states", 0.10, 50); len(failures) != 0 {
		t.Errorf("±31-state jitter on a small counter flagged despite the floor: %v", failures)
	}
	if failures, _ := compare(baseline, jitter, "visited-states", 0.10, 0); len(failures) != 1 {
		t.Errorf("without the floor the relative tolerance should flag 250 -> 281: %v", failures)
	}

	// The floor is a floor, not a blank check: exceeding it still fails.
	real := report{Benchmarks: []benchmark{
		bench("repro", "BenchmarkSmall-8", 305),
		bench("repro", "BenchmarkBig-8", 100000),
	}}
	failures, _ := compare(baseline, real, "visited-states", 0.10, 50)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkSmall-8") {
		t.Errorf("a +55-state regression must beat the 50-state floor: %v", failures)
	}

	// Relative regime: on large counters the floor is irrelevant —
	// base*tolerance dominates, so +9% passes and +11% fails with or
	// without it.
	for _, floor := range []float64{0, 50} {
		ok := report{Benchmarks: []benchmark{
			bench("repro", "BenchmarkSmall-8", 250),
			bench("repro", "BenchmarkBig-8", 109000),
		}}
		if failures, _ := compare(baseline, ok, "visited-states", 0.10, floor); len(failures) != 0 {
			t.Errorf("floor %.0f: +9%% on a large counter flagged: %v", floor, failures)
		}
		bad := report{Benchmarks: []benchmark{
			bench("repro", "BenchmarkSmall-8", 250),
			bench("repro", "BenchmarkBig-8", 111000),
		}}
		if failures, _ := compare(baseline, bad, "visited-states", 0.10, floor); len(failures) != 1 {
			t.Errorf("floor %.0f: +11%% on a large counter not flagged: %v", floor, failures)
		}
	}
}

// TestIdentical pins the informational line: it counts exact matches
// among the baseline's metrics and names every change, in key order,
// with old -> new — a within-tolerance drift, an improvement and a
// disappearance alike, since the line reports, it does not gate.
func TestIdentical(t *testing.T) {
	baseline := report{Benchmarks: []benchmark{
		bench("repro", "BenchmarkA-8", 1000),
		bench("repro", "BenchmarkB-8", 200),
		bench("repro", "BenchmarkC-8", 300),
		bench("repro", "BenchmarkGone-8", 50),
		{Name: "BenchmarkNoMetric-8", Package: "repro", Metrics: map[string]float64{"ns/op": 123}},
	}}
	if got, want := identical(baseline, baseline, "visited-states"),
		"benchcheck: 4 of 4 visited-states metrics identical"; got != want {
		t.Errorf("self-comparison line = %q, want %q", got, want)
	}

	fresh := report{Benchmarks: []benchmark{
		bench("repro", "BenchmarkA-8", 1000),
		bench("repro", "BenchmarkC-8", 301),
		bench("repro", "BenchmarkB-8", 150),
		bench("repro", "BenchmarkNew-8", 7),
	}}
	want := "benchcheck: 1 of 4 visited-states metrics identical; changed: " +
		"repro BenchmarkB-8 200 -> 150, repro BenchmarkC-8 300 -> 301, repro BenchmarkGone-8 50 -> missing"
	if got := identical(baseline, fresh, "visited-states"); got != want {
		t.Errorf("line = %q\nwant   %q", got, want)
	}
}
