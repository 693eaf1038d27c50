// Parallel candidate scoring must be invisible: SpreadAcrossDomainsWith
// with ProbeWorkers > 1 stripes exact-level scoring over private
// scorers, but the dedup-first design keeps the chosen mapping AND the
// work telemetry byte-identical to the serial scan.
package placement_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/placement"
	"repro/internal/topology"
)

func TestSpreadProbeWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 3; trial++ {
		pl := randomSpreadPlacement(rng, 12, 3, 20+rng.Intn(20))
		topo, err := topology.UniformHierarchy(12, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		var serialTel placement.SpreadTelemetry
		serial, serialMap, err := placement.SpreadAcrossDomainsWith(pl, topo, 2, 2,
			placement.SpreadOpts{Telemetry: &serialTel})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			var tel placement.SpreadTelemetry
			spread, mapping, err := placement.SpreadAcrossDomainsWith(pl, topo, 2, 2,
				placement.SpreadOpts{Telemetry: &tel, ProbeWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(mapping, serialMap) {
				t.Fatalf("trial %d workers=%d: mapping %v, serial %v", trial, workers, mapping, serialMap)
			}
			if !reflect.DeepEqual(spread, serial) {
				t.Fatalf("trial %d workers=%d: spread placement differs from serial", trial, workers)
			}
			// Dedup-first scoring performs exactly the serial scan's
			// work: candidate evaluations, memo hits, and rebuilds all
			// match (only warm-seed opportunities depend on striping).
			if tel.Evals != serialTel.Evals || tel.MemoHits != serialTel.MemoHits || tel.Rebuilds != serialTel.Rebuilds {
				t.Fatalf("trial %d workers=%d: telemetry %+v, serial %+v", trial, workers, tel, serialTel)
			}
			if tel.MemoHits+tel.Rebuilds != tel.Evals {
				t.Fatalf("trial %d workers=%d: telemetry does not balance: %+v", trial, workers, tel)
			}
		}
	}
}

// TestSpreadWarmChainTelemetry pins the warm-witness chain of the
// spread scorer on a seeded two-level case where it fires: the exact
// counters of the serial scan (one stripe, the witness chaining across
// every unique candidate of a level) and of two and eight stripes
// (chains restart per stripe, so fewer warm seeds), with the duplicate
// candidates answered without a search at every worker count.
func TestSpreadWarmChainTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	pl := randomSpreadPlacement(rng, 18, 2, 12)
	topo, err := topology.UniformHierarchy(18, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workers int
		want    placement.SpreadTelemetry
	}{
		{1, placement.SpreadTelemetry{Evals: 10, MemoHits: 2, WarmSeeds: 2, Rebuilds: 8}},
		{2, placement.SpreadTelemetry{Evals: 10, MemoHits: 2, WarmSeeds: 1, Rebuilds: 8}},
		{8, placement.SpreadTelemetry{Evals: 10, MemoHits: 2, WarmSeeds: 0, Rebuilds: 8}},
	} {
		var tel placement.SpreadTelemetry
		if _, _, err := placement.SpreadAcrossDomainsWith(pl, topo, 2, 2,
			placement.SpreadOpts{Telemetry: &tel, ProbeWorkers: tc.workers}); err != nil {
			t.Fatal(err)
		}
		if tel != tc.want {
			t.Errorf("workers=%d: telemetry %+v, want %+v", tc.workers, tel, tc.want)
		}
	}
}
