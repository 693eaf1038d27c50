package search

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// randWeightedInstance builds a random HitInstance over m candidates and
// numObjects objects with the given per-object weights (nil = unit):
// candidates sorted by descending WEIGHTED load, as the drivers require.
// It returns the instance plus the raw hit lists in candidate order so
// an independent oracle can re-evaluate any selection.
func randWeightedInstance(rng *rand.Rand, m, numObjects, k, s int, w []int64) (*HitInstance, [][]Hit) {
	raw := make([][]Hit, m)
	for c := 0; c < m; c++ {
		for obj := 0; obj < numObjects; obj++ {
			if rng.Intn(3) == 0 {
				raw[c] = append(raw[c], Hit{Obj: int32(obj), C: int32(1 + rng.Intn(2))})
			}
		}
	}
	wload := func(hl []Hit) int64 {
		var sum int64
		for _, h := range hl {
			c := int64(h.C)
			if w != nil {
				c *= w[h.Obj]
			}
			sum += c
		}
		return sum
	}
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := wload(raw[order[a]]), wload(raw[order[b]])
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	lists := make([][]Hit, m)
	loads := make([]int64, m)
	for i, c := range order {
		lists[i] = raw[c]
		loads[i] = wload(raw[c])
	}
	in := NewHitInstance(s, numObjects)
	in.reinit(k, lists, loads, w)
	return in, lists
}

// weightedOracle finds the exact maximum Σ w over failed objects by
// independent enumeration over all k-subsets of candidates.
func weightedOracle(lists [][]Hit, numObjects, k, s int, w []int64) int {
	m := len(lists)
	sel := make([]int, k)
	cnt := make([]int, numObjects)
	best := 0
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			for i := range cnt {
				cnt[i] = 0
			}
			for _, c := range sel {
				for _, h := range lists[c] {
					cnt[h.Obj] += int(h.C)
				}
			}
			damage := 0
			for obj, c := range cnt {
				if c >= s {
					if w != nil {
						damage += int(w[obj])
					} else {
						damage++
					}
				}
			}
			if damage > best {
				best = damage
			}
			return
		}
		for c := start; c <= m-(k-depth); c++ {
			sel[depth] = c
			rec(c+1, depth+1)
		}
	}
	rec(0, 0)
	return best
}

// TestWeightedDifferential pins the weighted search against an
// independent brute-force oracle: Exhaustive is exact, Greedy is a
// valid lower bound, and branch-and-bound under BOTH pruning bounds
// returns the oracle value with residual visiting no more states than
// static.
func TestWeightedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for trial := 0; trial < 40; trial++ {
		m := 4 + rng.Intn(4)
		numObjects := 4 + rng.Intn(8)
		k := 1 + rng.Intn(3)
		if k > m {
			k = m
		}
		s := 1 + rng.Intn(3)
		w := make([]int64, numObjects)
		for i := range w {
			w[i] = int64(1 + rng.Intn(5))
		}
		in, lists := randWeightedInstance(rng, m, numObjects, k, s, w)
		want := weightedOracle(lists, numObjects, k, s, w)

		ex := Exhaustive(in)
		if ex.Failed != want {
			t.Fatalf("trial %d: Exhaustive weighted damage %d, oracle %d", trial, ex.Failed, want)
		}
		gr := Greedy(in)
		if gr.Failed > want {
			t.Fatalf("trial %d: Greedy weighted damage %d exceeds oracle %d", trial, gr.Failed, want)
		}
		res := BranchAndBound(in, gr, NewBudget(0), 1, BoundResidual)
		if !res.Exact || res.Failed != want {
			t.Fatalf("trial %d: residual B&B %+v, oracle %d", trial, res, want)
		}
		in.reinit(k, lists, loadsOf(in), w)
		gr2 := Greedy(in)
		stat := BranchAndBound(in, gr2, NewBudget(0), 1, BoundStatic)
		if !stat.Exact || stat.Failed != want {
			t.Fatalf("trial %d: static B&B %+v, oracle %d", trial, stat, want)
		}
		if res.Visited > stat.Visited {
			t.Fatalf("trial %d: residual visited %d > static %d", trial, res.Visited, stat.Visited)
		}
	}
}

// loadsOf reads back an instance's candidate loads (reinit scratch for
// re-initializing the same search).
func loadsOf(in *HitInstance) []int64 {
	loads := make([]int64, in.Len())
	for i := range loads {
		loads[i] = in.Load(i)
	}
	return loads
}

// TestUnitWeightsByteIdentical is the weights≡1 pin: explicit all-one
// weights must reproduce the unweighted search EXACTLY — damage,
// witness selection, exactness, and visited-state counts — across all
// three drivers and both pruning bounds.
func TestUnitWeightsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 30; trial++ {
		m := 4 + rng.Intn(5)
		numObjects := 5 + rng.Intn(10)
		k := 1 + rng.Intn(3)
		if k > m {
			k = m
		}
		s := 1 + rng.Intn(3)
		ones := make([]int64, numObjects)
		for i := range ones {
			ones[i] = 1
		}
		// Same RNG draw for both instances: clone the generator state by
		// re-seeding per trial.
		seed := rng.Int63()
		plain, _ := randWeightedInstance(rand.New(rand.NewSource(seed)), m, numObjects, k, s, nil)
		weighted, _ := randWeightedInstance(rand.New(rand.NewSource(seed)), m, numObjects, k, s, ones)

		type run struct {
			name string
			f    func(in *HitInstance) Result
		}
		runs := []run{
			{"exhaustive", func(in *HitInstance) Result { return Exhaustive(in) }},
			{"greedy", func(in *HitInstance) Result { return Greedy(in) }},
			{"bnb-residual", func(in *HitInstance) Result {
				seed := Greedy(in)
				return BranchAndBound(in, seed, NewBudget(0), 1, BoundResidual)
			}},
			{"bnb-static", func(in *HitInstance) Result {
				seed := Greedy(in)
				return BranchAndBound(in, seed, NewBudget(0), 1, BoundStatic)
			}},
		}
		for _, r := range runs {
			a := r.f(plain)
			b := r.f(weighted)
			if a.Failed != b.Failed || a.Exact != b.Exact || a.Visited != b.Visited {
				t.Fatalf("trial %d %s: unit-weight run differs: plain %+v, weighted %+v", trial, r.name, a, b)
			}
			if len(a.Sel) != len(b.Sel) {
				t.Fatalf("trial %d %s: witness lengths differ: %v vs %v", trial, r.name, a.Sel, b.Sel)
			}
			for i := range a.Sel {
				if a.Sel[i] != b.Sel[i] {
					t.Fatalf("trial %d %s: witnesses differ: %v vs %v", trial, r.name, a.Sel, b.Sel)
				}
			}
			// The drivers leave counters balanced; re-running the next
			// driver on the same instances is intentional.
		}
	}
}

// TestReinitWeightsContract pins reinit's weights contract: a weight
// vector must match the object count (the panic names both numbers),
// the root gain vector reinit builds is weighted, and a reinit without
// weights reverts to unit weights.
func TestReinitWeightsContract(t *testing.T) {
	in := NewHitInstance(1, 3)
	lists := [][]Hit{{{Obj: 0, C: 1}}}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "1 object weights for 3 objects") {
				t.Errorf("short weights: panic %q, want one naming both counts", msg)
			}
		}()
		in.reinit(1, lists, []int64{1}, []int64{1})
	}()
	in.reinit(1, lists, []int64{5}, []int64{5, 1, 1})
	if got := in.Marginal(0); got != 5 || in.root[0] != 5 {
		t.Errorf("weighted Marginal = %d, root gain %d, want 5 and 5", got, in.root[0])
	}
	in.reinit(1, lists, []int64{1}, nil)
	if got := in.Marginal(0); got != 1 || in.root[0] != 1 {
		t.Errorf("reinit did not revert to unit weights: Marginal = %d, root gain %d", got, in.root[0])
	}
}
