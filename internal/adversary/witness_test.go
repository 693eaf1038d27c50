package adversary_test

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/placement"
	"repro/internal/randplace"
	"repro/internal/topology"
)

// TestConstrainedWitnessDeterministic pins that an exact constrained
// search reports the same attack at any worker count: equal damage in
// two domain subsets goes to the subset first in lex order, whichever
// worker finishes first. Random placements leave many such ties.
func TestConstrainedWitnessDeterministic(t *testing.T) {
	topo, err := topology.Uniform(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := 1; seed <= seeds; seed++ {
		pl, err := randplace.Generate(placement.Params{N: 16, B: 30, R: 3, S: 2, K: 4}, int64(seed))
		if err != nil {
			t.Fatal(err)
		}
		want, err := adversary.ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, 2, 4, 2, adversary.SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			for rep := 0; rep < 5; rep++ {
				got, err := adversary.ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, 2, 4, 2, adversary.SearchOpts{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got.Failed != want.Failed || !got.Exact || !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Domains, want.Domains) {
					t.Fatalf("seed %d workers=%d rep %d: (failed=%d nodes=%v domains=%v exact=%v), one worker (failed=%d nodes=%v domains=%v)",
						seed, workers, rep, got.Failed, got.Nodes, got.Domains, got.Exact, want.Failed, want.Nodes, want.Domains)
				}
				if workers == 1 && got.Visited != want.Visited {
					t.Fatalf("seed %d rep %d: one-worker visited %d, then %d", seed, rep, want.Visited, got.Visited)
				}
			}
		}
	}
}
