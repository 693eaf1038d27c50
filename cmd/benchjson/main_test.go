package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkDomainWorstCaseLarge/serial         	       1	 232482502 ns/op	     96547 visited-states
BenchmarkBoundAblation/partition-s1-d7/bound=residual       	       2	   1442990 ns/op	  123456 B/op	     789 allocs/op	      1483 visited-states
BenchmarkFig11-8	     100	    123 ns/op
PASS
ok  	repro	2.119s
pkg: repro/internal/search
BenchmarkSomething-8	      10	  42 ns/op
`

func TestParse(t *testing.T) {
	report, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if report.GOOS != "linux" || report.GOARCH != "amd64" || !strings.Contains(report.CPU, "Xeon") {
		t.Errorf("header mis-parsed: %+v", report)
	}
	if len(report.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(report.Benchmarks))
	}

	large := report.Benchmarks[0]
	if large.Name != "BenchmarkDomainWorstCaseLarge/serial" || large.Package != "repro" {
		t.Errorf("first row: %+v", large)
	}
	if large.Iterations != 1 || large.NsPerOp != 232482502 {
		t.Errorf("first row numbers: %+v", large)
	}
	if large.Metrics["visited-states"] != 96547 {
		t.Errorf("visited-states = %v, want 96547", large.Metrics["visited-states"])
	}

	ablation := report.Benchmarks[1]
	if ablation.AllocsPerOp == nil || *ablation.AllocsPerOp != 789 {
		t.Errorf("allocs_per_op: %+v", ablation.AllocsPerOp)
	}
	if ablation.BytesPerOp == nil || *ablation.BytesPerOp != 123456 {
		t.Errorf("bytes_per_op: %+v", ablation.BytesPerOp)
	}
	if ablation.Metrics["visited-states"] != 1483 {
		t.Errorf("ablation visited-states: %v", ablation.Metrics)
	}

	if report.Benchmarks[2].Metrics != nil || report.Benchmarks[2].AllocsPerOp != nil {
		t.Errorf("plain row should have no extras: %+v", report.Benchmarks[2])
	}
	if report.Benchmarks[3].Package != "repro/internal/search" {
		t.Errorf("pkg header not tracked: %+v", report.Benchmarks[3])
	}
}

func TestParseSkipsNonResultLines(t *testing.T) {
	report, err := parse(strings.NewReader("BenchmarkFoo\nBenchmarkBar-8 notanint 12 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from junk, want 0", len(report.Benchmarks))
	}
}

// TestParseTrimsProcsSuffix pins the row key: the -N GOMAXPROCS suffix
// go test adds on multi-core hosts is stripped, so the rows match a
// baseline recorded at GOMAXPROCS=1, while dashes and digits inside
// sub-benchmark names survive.
func TestParseTrimsProcsSuffix(t *testing.T) {
	in := `BenchmarkFig2-2	1	10 ns/op
BenchmarkBoundAblation/partition-s1-d10/bound=residual-16	1	10 ns/op
BenchmarkDomainWorstCasePar/workers=8-2	1	10 ns/op
BenchmarkBoundAblation/partition-s1-d10	1	10 ns/op
BenchmarkDomainWorstCasePar/workers=8	1	10 ns/op
`
	report, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"BenchmarkFig2",
		"BenchmarkBoundAblation/partition-s1-d10/bound=residual",
		"BenchmarkDomainWorstCasePar/workers=8",
		"BenchmarkBoundAblation/partition-s1-d10",
		"BenchmarkDomainWorstCasePar/workers=8",
	}
	if len(report.Benchmarks) != len(want) {
		t.Fatalf("parsed %d rows, want %d", len(report.Benchmarks), len(want))
	}
	for i, b := range report.Benchmarks {
		if b.Name != want[i] {
			t.Errorf("row %d: name %q, want %q", i, b.Name, want[i])
		}
	}
}
