package adversary

import (
	"math/rand"
	"testing"

	"repro/internal/combin"
	"repro/internal/placement"
	"repro/internal/topology"
)

// randObjWeights draws a per-object weight vector in [1, 5].
func randObjWeights(rng *rand.Rand, b int) []int64 {
	w := make([]int64, b)
	for i := range w {
		w[i] = int64(1 + rng.Intn(5))
	}
	return w
}

// weightedNodeDamage is the independent weighted oracle: Σ w over
// objects with >= s replicas on the failed node set.
func weightedNodeDamage(pl *placement.Placement, failed *combin.Bitset, s int, w []int64) int {
	damage := 0
	for obj, o := range pl.Objects {
		if o.IntersectCount(failed) >= s {
			damage += int(w[obj])
		}
	}
	return damage
}

// referenceWeightedWorst enumerates every k-subset of nodes.
func referenceWeightedWorst(pl *placement.Placement, s, k int, w []int64) int {
	best := 0
	combin.ForEachSubset(pl.N, k, func(idx []int) bool {
		bs := combin.NewBitset(pl.N)
		for _, nd := range idx {
			bs.Set(nd)
		}
		if dmg := weightedNodeDamage(pl, bs, s, w); dmg > best {
			best = dmg
		}
		return true
	})
	return best
}

// referenceWeightedDomainWorst enumerates every d-subset of domains.
func referenceWeightedDomainWorst(pl *placement.Placement, topo *topology.Topology, s, d int, w []int64) int {
	best := 0
	combin.ForEachSubset(topo.NumDomains(), d, func(idx []int) bool {
		if dmg := weightedNodeDamage(pl, topo.FailedSet(idx), s, w); dmg > best {
			best = dmg
		}
		return true
	})
	return best
}

// TestWeightedNodeEnginesDifferential pins the weighted node trio
// against the independent oracle: exhaustive and branch-and-bound
// (serial and parallel) are exact in lost weight, greedy is a valid
// lower bound.
func TestWeightedNodeEnginesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 15; trial++ {
		n := 6 + rng.Intn(4)
		r := 2 + rng.Intn(2)
		b := 8 + rng.Intn(12)
		s := 1 + rng.Intn(r)
		k := 1 + rng.Intn(3)
		pl := randomPlacement(rng, n, r, b)
		w := randObjWeights(rng, b)
		want := referenceWeightedWorst(pl, s, k, w)
		opts := SearchOpts{ObjWeights: w}

		ex, err := ExhaustiveWith(pl, s, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Failed != want {
			t.Errorf("trial %d: weighted Exhaustive %d, oracle %d", trial, ex.Failed, want)
		}
		gr, err := GreedyWith(pl, s, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Failed > want {
			t.Errorf("trial %d: weighted Greedy %d exceeds oracle %d", trial, gr.Failed, want)
		}
		for _, workers := range []int{1, 4} {
			res, err := WorstCaseWith(pl, s, k, SearchOpts{ObjWeights: w, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Exact || res.Failed != want {
				t.Errorf("trial %d workers=%d: weighted WorstCase %+v, oracle %d", trial, workers, res, want)
			}
			// The witness must realize the claimed weight.
			bs := combin.NewBitset(pl.N)
			for _, nd := range res.Nodes {
				bs.Set(nd)
			}
			if got := weightedNodeDamage(pl, bs, s, w); got != res.Failed {
				t.Errorf("trial %d: witness %v realizes %d, claimed %d", trial, res.Nodes, got, res.Failed)
			}
		}
	}
}

// TestWeightedDomainEnginesDifferential pins the weighted domain trio
// and the constrained pair against independent enumeration.
func TestWeightedDomainEnginesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for trial := 0; trial < 12; trial++ {
		n := 7 + rng.Intn(5)
		r := 2 + rng.Intn(2)
		b := 8 + rng.Intn(12)
		s := 1 + rng.Intn(r)
		pl := randomPlacement(rng, n, r, b)
		topo := randomTopology(rng, n)
		d := 1 + rng.Intn(topo.NumDomains())
		w := randObjWeights(rng, b)
		want := referenceWeightedDomainWorst(pl, topo, s, d, w)
		opts := SearchOpts{ObjWeights: w}

		ex, err := DomainExhaustiveAtWith(pl, topo, topology.Leaf, s, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Failed != want {
			t.Errorf("trial %d: weighted DomainExhaustive %d, oracle %d", trial, ex.Failed, want)
		}
		gr, err := DomainGreedyAtWith(pl, topo, topology.Leaf, s, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Failed > want {
			t.Errorf("trial %d: weighted DomainGreedy %d exceeds oracle %d", trial, gr.Failed, want)
		}
		for _, workers := range []int{1, 4} {
			res, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, SearchOpts{ObjWeights: w, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Exact || res.Failed != want {
				t.Errorf("trial %d workers=%d: weighted DomainWorstCase %+v, oracle %d", trial, workers, res, want)
			}
		}

		// Constrained: k nodes in <= d domains, weighted.
		k := 1 + rng.Intn(3)
		wantCon := 0
		combin.ForEachSubset(topo.NumDomains(), d, func(doms []int) bool {
			allowed := topo.FailedSet(doms).Members(nil)
			kEff := k
			if len(allowed) < kEff {
				kEff = len(allowed)
			}
			combin.ForEachSubset(len(allowed), kEff, func(idx []int) bool {
				bs := combin.NewBitset(pl.N)
				for _, i := range idx {
					bs.Set(allowed[i])
				}
				if dmg := weightedNodeDamage(pl, bs, s, w); dmg > wantCon {
					wantCon = dmg
				}
				return true
			})
			return true
		})
		conEx, err := ConstrainedExhaustiveAtWith(pl, topo, topology.Leaf, s, k, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if conEx.Failed != wantCon {
			t.Errorf("trial %d: weighted ConstrainedExhaustive %d, oracle %d", trial, conEx.Failed, wantCon)
		}
		for _, workers := range []int{1, 4} {
			conRes, err := ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, s, k, d, SearchOpts{ObjWeights: w, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !conRes.Exact || conRes.Failed != wantCon {
				t.Errorf("trial %d workers=%d: weighted ConstrainedWorstCase %+v, oracle %d", trial, workers, conRes, wantCon)
			}
		}
	}
}

// TestWeightedUnitParity is the weights≡1 acceptance pin: an explicit
// all-ones weight vector must reproduce the unweighted engines EXACTLY
// — damage, witness, exactness and visited states — for all six
// engines plus the constrained pair.
func TestWeightedUnitParity(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	for trial := 0; trial < 10; trial++ {
		n := 7 + rng.Intn(5)
		r := 2 + rng.Intn(2)
		b := 10 + rng.Intn(15)
		s := 1 + rng.Intn(r)
		k := 1 + rng.Intn(3)
		pl := randomPlacement(rng, n, r, b)
		topo := randomTopology(rng, n)
		d := 1 + rng.Intn(topo.NumDomains())
		ones := make([]int64, b)
		for i := range ones {
			ones[i] = 1
		}
		wopts := SearchOpts{ObjWeights: ones}

		checkNode := func(name string, plain Result, perr error, weighted Result, werr error) {
			t.Helper()
			if perr != nil || werr != nil {
				t.Fatalf("trial %d %s: %v / %v", trial, name, perr, werr)
			}
			if plain.Failed != weighted.Failed || plain.Exact != weighted.Exact || plain.Visited != weighted.Visited {
				t.Errorf("trial %d %s: unit weights diverge: %+v vs %+v", trial, name, plain, weighted)
			}
		}
		checkDomain := func(name string, plain DomainResult, perr error, weighted DomainResult, werr error) {
			t.Helper()
			if perr != nil || werr != nil {
				t.Fatalf("trial %d %s: %v / %v", trial, name, perr, werr)
			}
			if plain.Failed != weighted.Failed || plain.Exact != weighted.Exact || plain.Visited != weighted.Visited {
				t.Errorf("trial %d %s: unit weights diverge: %+v vs %+v", trial, name, plain, weighted)
			}
		}

		{
			a, aerr := ExhaustiveWith(pl, s, k, SearchOpts{})
			b2, berr := ExhaustiveWith(pl, s, k, wopts)
			checkNode("Exhaustive", a, aerr, b2, berr)
		}
		{
			a, aerr := GreedyWith(pl, s, k, SearchOpts{})
			b2, berr := GreedyWith(pl, s, k, wopts)
			checkNode("Greedy", a, aerr, b2, berr)
		}
		{
			a, aerr := WorstCaseWith(pl, s, k, SearchOpts{})
			b2, berr := WorstCaseWith(pl, s, k, wopts)
			checkNode("WorstCase", a, aerr, b2, berr)
			if len(a.Nodes) != len(b2.Nodes) {
				t.Errorf("trial %d: witness length diverges: %v vs %v", trial, a.Nodes, b2.Nodes)
			} else {
				for i := range a.Nodes {
					if a.Nodes[i] != b2.Nodes[i] {
						t.Errorf("trial %d: witnesses diverge: %v vs %v", trial, a.Nodes, b2.Nodes)
						break
					}
				}
			}
		}
		{
			a, aerr := DomainExhaustiveAtWith(pl, topo, topology.Leaf, s, d, SearchOpts{})
			b2, berr := DomainExhaustiveAtWith(pl, topo, topology.Leaf, s, d, wopts)
			checkDomain("DomainExhaustive", a, aerr, b2, berr)
		}
		{
			a, aerr := DomainGreedyAtWith(pl, topo, topology.Leaf, s, d, SearchOpts{})
			b2, berr := DomainGreedyAtWith(pl, topo, topology.Leaf, s, d, wopts)
			checkDomain("DomainGreedy", a, aerr, b2, berr)
		}
		{
			a, aerr := DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, SearchOpts{})
			b2, berr := DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, wopts)
			checkDomain("DomainWorstCase", a, aerr, b2, berr)
		}
		{
			a, aerr := ConstrainedExhaustiveAtWith(pl, topo, topology.Leaf, s, k, d, SearchOpts{})
			b2, berr := ConstrainedExhaustiveAtWith(pl, topo, topology.Leaf, s, k, d, wopts)
			checkDomain("ConstrainedExhaustive", a, aerr, b2, berr)
		}
		{
			a, aerr := ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, s, k, d, SearchOpts{})
			b2, berr := ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, s, k, d, wopts)
			checkDomain("ConstrainedWorstCase", a, aerr, b2, berr)
		}
	}
}

// TestObjWeightsValidation pins the weight-vector argument checks.
func TestObjWeightsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	pl := randomPlacement(rng, 6, 2, 8)
	if _, err := ExhaustiveWith(pl, 1, 2, SearchOpts{ObjWeights: []int64{1, 2}}); err == nil {
		t.Error("short weight vector accepted")
	}
	bad := make([]int64, pl.B())
	bad[3] = -1
	if _, err := WorstCaseWith(pl, 1, 2, SearchOpts{ObjWeights: bad}); err == nil {
		t.Error("negative weight accepted")
	}
}
