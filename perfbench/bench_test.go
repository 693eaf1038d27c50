package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// shortRun runs a traced workload for a fixed number of operations.
func shortRun(t *testing.T, name string, ops int) *outcome {
	t.Helper()
	out, err := workloads[name](runOpts{
		seed: 1, seconds: 0, workers: 2, dir: t.TempDir(), trace: true, setups: 1, maxOps: ops,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted != ops || out.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, out.failed, out.attempted, out.failures)
	}
	return out
}

// TestCountsRepeatExactly is the exact-count check: the per-layer
// counts of two runs of one seed (visited states, SessionStats,
// SpreadTelemetry, moves and outcomes) must be identical.
func TestCountsRepeatExactly(t *testing.T) {
	sizes := map[string]int{"certify": 2, "reconcile": 40, "plan": 60}
	if testing.Short() { // sized for -race
		sizes = map[string]int{"certify": 1, "reconcile": 8, "plan": 8}
	}
	for name, ops := range sizes {
		a, b := shortRun(t, name, ops), shortRun(t, name, ops)
		if len(a.counts) == 0 {
			t.Fatalf("%s: no counts recorded", name)
		}
		if !reflect.DeepEqual(a.counts, b.counts) {
			t.Errorf("%s: counts differ between two runs of seed 1:\n  %v\n  %v", name, a.counts, b.counts)
		}
	}
}

// TestCertifyDamagePinned pins the serial worst-case damage of seed 1's
// first pairs; the benchmark's parallel answers are checked against the
// serial engine on every traced run.
func TestCertifyDamagePinned(t *testing.T) {
	want := []struct{ node, domain int }{{16, 17}, {16, 16}}
	st, err := setupCertify(genCertify(1, len(want)))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		r := st.attackPair(i, 1, nil)
		if err := st.check(i, r); err != nil {
			t.Fatal(err)
		}
		if r.node.Failed != w.node || r.domain.Failed != w.domain {
			t.Errorf("pair %d: damage node %d domain %d, pinned %d %d", i, r.node.Failed, r.domain.Failed, w.node, w.domain)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, w := range cfg.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(cfg.Workloads), len(workloads))
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		prog []metric
	}{{"end_to_end", cfg.EndToEnd, endToEnd}, {"per_layer", cfg.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.what, len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.prog {
			if c.json[i].Name != m.Name || c.json[i].Unit != m.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.what, i, c.json[i].Name, c.json[i].Unit, m.Name, m.Unit)
			}
		}
	}
}
