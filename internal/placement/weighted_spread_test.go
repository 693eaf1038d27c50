package placement_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/placement"
	"repro/internal/topology"
)

func TestObjectWeights(t *testing.T) {
	pl := placement.NewPlacement(4, 2)
	for _, obj := range [][]int{{0, 1}, {2, 3}, {0, 3}} {
		if err := pl.Add(obj); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := topology.Uniform(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Unweighted topology: nil (the engines' unit convention).
	w, err := placement.ObjectWeights(pl, topo)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Errorf("unweighted topology yields weights %v, want nil", w)
	}
	// Node 0 is hot: objects touching it inherit its weight (max rule).
	topo.Weights = []int{5, 1, 1, 3}
	w, err = placement.ObjectWeights(pl, topo)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{5, 3, 5}
	for obj := range want {
		if w[obj] != want[obj] {
			t.Errorf("object %d weight = %d, want %d", obj, w[obj], want[obj])
		}
	}
	if got := placement.SumWeights(w, pl.B()); got != 13 {
		t.Errorf("SumWeights = %d, want 13", got)
	}
	if got := placement.SumWeights(nil, 7); got != 7 {
		t.Errorf("SumWeights(nil, 7) = %d, want 7", got)
	}
	other, err := topology.Uniform(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := placement.ObjectWeights(pl, other); err == nil {
		t.Error("mismatched topology accepted")
	}
}

// TestWeightedSpreadNeverWorse is the weighted analogue of the spread
// guarantee: with Weighted scoring on a hot-node topology, the spread
// placement never loses more WEIGHT than the oblivious layout at any
// level (each layout scored with its own labeling's object weights).
func TestWeightedSpreadNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(8)
		r := 2 + rng.Intn(2)
		b := 8 + rng.Intn(16)
		s := 1 + rng.Intn(r)
		pl := placement.NewPlacement(n, r)
		nodes := make([]int, r)
		for i := 0; i < b; i++ {
			perm := rng.Perm(n)
			copy(nodes, perm[:r])
			if err := pl.Add(nodes); err != nil {
				t.Fatal(err)
			}
		}
		var topo *topology.Topology
		var err error
		if trial%2 == 0 {
			topo, err = topology.UniformTree(n, 2, 2)
		} else {
			topo, err = topology.Uniform(n, 2+rng.Intn(3))
		}
		if err != nil {
			t.Fatal(err)
		}
		weights := make([]int, n)
		for i := range weights {
			weights[i] = 1
		}
		// A couple of hot nodes.
		for h := 0; h < 1+rng.Intn(2); h++ {
			weights[rng.Intn(n)] = 2 + rng.Intn(5)
		}
		topo.Weights = weights
		d := 1 + rng.Intn(2)
		if nd := topo.NumDomains(); d > nd {
			d = nd
		}
		aware, _, err := placement.SpreadAcrossDomainsWith(pl, topo, s, d, placement.SpreadOpts{Weighted: true})
		if err != nil {
			t.Fatal(err)
		}
		for level := 0; level < topo.Levels(); level++ {
			flat, err := topo.Collapse(level)
			if err != nil {
				t.Fatal(err)
			}
			dl := d
			if nd := flat.NumDomains(); dl > nd {
				dl = nd
			}
			oblivW, err := placement.ObjectWeights(pl, topo)
			if err != nil {
				t.Fatal(err)
			}
			awareW, err := placement.ObjectWeights(aware, topo)
			if err != nil {
				t.Fatal(err)
			}
			before, err := worstDomainDamage(pl, flat, topology.Leaf, s, dl, oblivW)
			if err != nil {
				t.Fatal(err)
			}
			after, err := worstDomainDamage(aware, flat, topology.Leaf, s, dl, awareW)
			if err != nil {
				t.Fatal(err)
			}
			if after > before {
				t.Errorf("trial %d (n=%d r=%d b=%d s=%d d=%d) level %d: weighted spread damage %d > oblivious %d",
					trial, n, r, b, s, dl, level, after, before)
			}
		}
	}
}

// TestWeightedSpreadUnitNoop: Weighted scoring on an unweighted
// topology must reproduce the plain spread exactly (same mapping).
func TestWeightedSpreadUnitNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.Intn(6)
		pl := placement.NewPlacement(n, 2)
		for i := 0; i < 10; i++ {
			perm := rng.Perm(n)
			if err := pl.Add(perm[:2]); err != nil {
				t.Fatal(err)
			}
		}
		topo, err := topology.Uniform(n, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, plain, err := placement.SpreadAcrossDomains(pl, topo, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, weighted, err := placement.SpreadAcrossDomainsWith(pl, topo, 2, 1, placement.SpreadOpts{Weighted: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain {
			if plain[i] != weighted[i] {
				t.Fatalf("trial %d: Weighted on an unweighted topology changed the mapping: %v vs %v",
					trial, plain, weighted)
			}
		}
	}
}

// TestObjectWeightsOverflow pins fail-closed node weights: hot nodes
// heavy enough that the derived object weights' r·Σw exceeds MaxInt64
// make ObjectWeights — and hence the weighted spread pass, which
// derives weights per candidate — fail with a *WeightOverflowError
// instead of scoring on wrapped loads. The check itself accepts the
// largest admissible total and rejects one more.
func TestObjectWeightsOverflow(t *testing.T) {
	pl := placement.NewPlacement(4, 2)
	for _, obj := range [][]int{{0, 1}, {0, 2}, {2, 3}} {
		if err := pl.Add(obj); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := topology.Uniform(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo.Weights = []int{math.MaxInt64 / 2, 1, 1, 1}
	var oe *placement.WeightOverflowError
	if _, err := placement.ObjectWeights(pl, topo); !errors.As(err, &oe) {
		t.Fatalf("ObjectWeights: err = %v, want *WeightOverflowError", err)
	}
	if oe.R != 2 || oe.Obj != 1 {
		t.Errorf("overflow error %+v, want r = 2 at object 1", oe)
	}
	if _, _, err := placement.SpreadAcrossDomainsWith(pl, topo, 1, 1, placement.SpreadOpts{Weighted: true}); !errors.As(err, &oe) {
		t.Fatalf("weighted spread: err = %v, want *WeightOverflowError", err)
	}

	limit := int64(math.MaxInt64) / 3
	if err := placement.CheckWeightTotal([]int64{limit - 1, 1}, 3); err != nil {
		t.Errorf("r·Σw = 3·(MaxInt64/3) rejected: %v", err)
	}
	if err := placement.CheckWeightTotal([]int64{limit, 1}, 3); !errors.As(err, &oe) {
		t.Errorf("r·Σw > MaxInt64 accepted: err = %v", err)
	}
}
