package search

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomHitInstance builds a HitInstance from a random object→replica
// assignment: b objects, each replicated on r distinct raw candidates
// with per-candidate multiplicities in [1, maxC], candidates reordered
// into the descending-load invariant. It returns the instance plus the
// per-candidate hit lists in final candidate order (for oracles).
func randomHitInstance(rng *rand.Rand, m, r, b, s, k, maxC int) (*HitInstance, [][]Hit) {
	perCand := make([]map[int32]int32, m)
	for i := range perCand {
		perCand[i] = make(map[int32]int32)
	}
	for obj := 0; obj < b; obj++ {
		perm := rng.Perm(m)
		for _, c := range perm[:r] {
			perCand[c][int32(obj)] = int32(1 + rng.Intn(maxC))
		}
	}
	lists := make([][]Hit, m)
	loads := make([]int64, m)
	for c := 0; c < m; c++ {
		for obj := int32(0); obj < int32(b); obj++ {
			if cnt, ok := perCand[c][obj]; ok {
				lists[c] = append(lists[c], Hit{Obj: obj, C: cnt})
				loads[c] += int64(cnt)
			}
		}
	}
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	// Descending load, ties by raw id — the branch-and-bound invariant.
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if loads[order[j]] > loads[order[i]] ||
				(loads[order[j]] == loads[order[i]] && order[j] < order[i]) {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	ordLists := make([][]Hit, m)
	ordLoads := make([]int64, m)
	for i, raw := range order {
		ordLists[i] = lists[raw]
		ordLoads[i] = loads[raw]
	}
	in := NewHitInstance(s, b)
	in.Reinit(k, ordLists, ordLoads)
	return in, ordLists
}

// TestResidualBoundEquivalence is the bound-soundness property test the
// ablation switch rests on: on random instances, residual-bound B&B,
// static-bound B&B, and Exhaustive return identical damage (and the two
// B&B modes the identical witness, since they walk the same tree), while
// the residual mode never visits more states than the static mode.
func TestResidualBoundEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	var tighter int
	for trial := 0; trial < 60; trial++ {
		m := 6 + rng.Intn(6)
		r := 2 + rng.Intn(2)
		b := 5 + rng.Intn(25)
		maxC := 1 + rng.Intn(3)
		s := 1 + rng.Intn(r*maxC)
		if s > r*maxC {
			s = r * maxC
		}
		k := 1 + rng.Intn(m-1)
		in, _ := randomHitInstance(rng, m, r, b, s, k, maxC)

		ex := Exhaustive(in)
		seed := Greedy(in)
		in.Reset()
		static := BranchAndBoundWith(in, seed, NewBudget(0), BoundStatic)
		resid := BranchAndBoundWith(in, seed, NewBudget(0), BoundResidual)

		if static.Failed != ex.Failed || resid.Failed != ex.Failed {
			t.Errorf("trial %d (m=%d r=%d b=%d s=%d k=%d): damage static=%d residual=%d exhaustive=%d",
				trial, m, r, b, s, k, static.Failed, resid.Failed, ex.Failed)
		}
		if !static.Exact || !resid.Exact {
			t.Errorf("trial %d: unbounded searches not exact (static %v, residual %v)",
				trial, static.Exact, resid.Exact)
		}
		if !reflect.DeepEqual(static.Sel, resid.Sel) {
			t.Errorf("trial %d: witness diverged: static %v, residual %v — same tree, same incumbents",
				trial, static.Sel, resid.Sel)
		}
		if resid.Visited > static.Visited {
			t.Errorf("trial %d: residual visited %d > static %d — the refinement loosened pruning",
				trial, resid.Visited, static.Visited)
		}
		if resid.Visited < static.Visited {
			tighter++
		}
	}
	if tighter == 0 {
		t.Error("residual bound never pruned deeper than static across 60 random trials — upkeep is likely broken")
	}
}

// TestResidualBoundUnderBudget pins the shared budget semantics for both
// bound modes: exactly one state per unit, incumbent within [greedy,
// exact], Exact cleared.
func TestResidualBoundUnderBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	in, _ := randomHitInstance(rng, 14, 3, 120, 2, 5, 1)
	seed := Greedy(in)
	in.Reset()
	full := BranchAndBoundWith(in, seed, NewBudget(0), BoundResidual)
	for _, bound := range []Bound{BoundStatic, BoundResidual} {
		for _, limit := range []int64{1, 9, 40} {
			bud := NewBudget(limit)
			res := BranchAndBoundWith(in, seed, bud, bound)
			if res.Exact {
				t.Errorf("%v budget %d: claims exactness", bound, limit)
			}
			if res.Visited != limit || bud.Used() != limit {
				t.Errorf("%v budget %d: visited %d used %d — one state per unit", bound, limit, res.Visited, bud.Used())
			}
			if res.Failed < seed.Failed || res.Failed > full.Failed {
				t.Errorf("%v budget %d: result %d outside [greedy %d, exact %d]",
					bound, limit, res.Failed, seed.Failed, full.Failed)
			}
		}
	}
}

// TestResidualStatsOracle drives a random Add/Remove stack against a
// from-scratch recomputation of the ResidualBounder invariants — the
// incremental upkeep (threshold crossings walking the inverted index)
// must match the definition at every step.
func TestResidualStatsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 20; trial++ {
		m := 5 + rng.Intn(6)
		r := 2 + rng.Intn(2)
		b := 4 + rng.Intn(20)
		maxC := 1 + rng.Intn(3)
		s := 1 + rng.Intn(3)
		in, lists := randomHitInstance(rng, m, r, b, s, k1(m), maxC)
		in.EnableResidual()

		check := func(chosen []int) {
			// From-scratch: counters, then per-candidate residuals and
			// the aggregate invariants.
			cnt := make([]int64, b)
			for _, c := range chosen {
				for _, h := range lists[c] {
					cnt[h.Obj] += int64(h.C)
				}
			}
			var wantDead, wantResid, wantDisc int64
			resid := make([]int64, m)
			for obj := 0; obj < b; obj++ {
				if cnt[obj] >= int64(s) {
					wantDead += cnt[obj]
				}
			}
			for c := 0; c < m; c++ {
				for _, h := range lists[c] {
					if cnt[h.Obj] < int64(s) {
						resid[c] += int64(h.C)
					} else {
						wantDisc += int64(h.C)
					}
				}
				// All candidates, chosen included: the global residual
				// deliberately overcounts chosen candidates (sound, and
				// keeps Add/Remove free of chosen-set bookkeeping); the
				// precise per-suffix cap is TopResidual.
				wantResid += resid[c]
			}
			gotDead, gotResid, gotDisc := in.ResidualStats()
			if gotDead != wantDead || gotResid != wantResid || gotDisc != wantDisc {
				t.Fatalf("trial %d chosen %v: ResidualStats = (%d, %d, %d), oracle (%d, %d, %d)",
					trial, chosen, gotDead, gotResid, gotDisc, wantDead, wantResid, wantDisc)
			}
			// TopResidual against a sort-based oracle, at random cuts.
			start := rng.Intn(m)
			maxRem := m - start
			if maxRem == 0 {
				return
			}
			rem := 1 + rng.Intn(maxRem)
			suffix := append([]int64(nil), resid[start:]...)
			sort.Slice(suffix, func(a, b int) bool { return suffix[a] > suffix[b] })
			var want int64
			for _, v := range suffix[:rem] {
				want += v
			}
			if got := in.TopResidual(start, rem); got != want {
				t.Fatalf("trial %d chosen %v: TopResidual(%d, %d) = %d, oracle %d",
					trial, chosen, start, rem, got, want)
			}
		}

		var stack []int
		check(stack)
		for step := 0; step < 60; step++ {
			if len(stack) > 0 && (len(stack) == m || rng.Intn(2) == 0) {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				in.Remove(top)
			} else {
				c := rng.Intn(m)
				for contains(stack, c) {
					c = rng.Intn(m)
				}
				// Cross-check Add's newly-failed count too.
				want := in.Marginal(c)
				if got := in.Add(c); got != want {
					t.Fatalf("trial %d: Add(%d) = %d, Marginal said %d", trial, c, got, want)
				}
				stack = append(stack, c)
			}
			check(stack)
		}
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			in.Remove(top)
		}
		check(stack)
	}
}

func k1(m int) int {
	if m < 2 {
		return 1
	}
	return m / 2
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// marginalCounter counts final-level scan work. Embedding promotes
// DupOfPrev, so the wrapped instance still dedups; the cover variant
// below never does.
type marginalCounter struct {
	*HitInstance
	calls int
}

func (c *marginalCounter) Marginal(i int) int { c.calls++; return c.HitInstance.Marginal(i) }

type coverMarginalCounter struct {
	*coverInstance
	calls int
}

func (c *coverMarginalCounter) Marginal(i int) int { c.calls++; return c.coverInstance.Marginal(i) }

// TestDuplicateCollapse pins the dedup contract on a partition-style
// instance: pairs of candidates with identical hit lists (plus zero-load
// padding) are explored once, so the deduping HitInstance visits no more
// states than a dedup-blind instance of the same search — at identical
// damage — and, because the final-level Marginal scan skips duplicates
// too, does strictly less scan work per rem == 1 node.
func TestDuplicateCollapse(t *testing.T) {
	// 4 groups of 2 identical candidates; group g hosts objects
	// 3g..3g+2 (with C = 1), s = 2, k = 3.
	const groups, b, s, k = 4, 12, 2, 3
	var members [][]int // per object: raw candidate indices (for coverInstance)
	lists := make([][]Hit, 2*groups)
	loads := make([]int64, 2*groups)
	members = make([][]int, b)
	for g := 0; g < groups; g++ {
		for o := 0; o < 3; o++ {
			obj := 3*g + o
			members[obj] = []int{2 * g, 2*g + 1}
			for _, c := range []int{2 * g, 2*g + 1} {
				lists[c] = append(lists[c], Hit{Obj: int32(obj), C: 1})
				loads[c] += 1
			}
		}
	}
	hit := NewHitInstance(s, b)
	hit.Reinit(k, lists, loads)
	for i := 1; i < 2*groups; i++ {
		wantDup := i%2 == 1 // the second member of each pair duplicates the first
		if hit.DupOfPrev(i) != wantDup {
			t.Errorf("DupOfPrev(%d) = %v, want %v", i, hit.DupOfPrev(i), wantDup)
		}
	}

	cover := newCoverInstance(2*groups, k, s, members) // no Deduper support
	want := Exhaustive(cover).Failed

	seedC := Greedy(cover)
	cover.Reset()
	blindIn := &coverMarginalCounter{coverInstance: cover}
	blind := BranchAndBoundWith(blindIn, seedC, NewBudget(0), BoundStatic)
	seedH := Greedy(hit)
	hit.Reset()
	dedupIn := &marginalCounter{HitInstance: hit}
	dedup := BranchAndBoundWith(dedupIn, seedH, NewBudget(0), BoundStatic)

	if blind.Failed != want || dedup.Failed != want {
		t.Fatalf("damage: blind %d, dedup %d, exhaustive %d", blind.Failed, dedup.Failed, want)
	}
	if dedup.Visited >= blind.Visited {
		t.Errorf("dedup visited %d >= blind %d — duplicate branches not collapsed", dedup.Visited, blind.Visited)
	}
	// The final-level scan is uncounted by the budget, so the skip shows
	// up in Marginal calls, not Visited: every dedup scan drops the
	// second member of each pair past its start.
	if dedupIn.calls >= blindIn.calls {
		t.Errorf("dedup made %d Marginal calls >= blind %d — final-level scan not skipping duplicates", dedupIn.calls, blindIn.calls)
	}
}

// TestReinitReuse pins the scratch-reuse contract the constrained
// engines rely on: re-initializing one instance across different
// candidate sets (of the same object universe) yields the same results
// as fresh instances.
func TestReinitReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	scratch := NewHitInstance(2, 30)
	for trial := 0; trial < 10; trial++ {
		m := 4 + rng.Intn(5)
		k := 1 + rng.Intn(m-1)
		fresh, lists := randomHitInstance(rng, m, 2, 30, 2, k, 2)
		loads := make([]int64, m)
		for i, hl := range lists {
			for _, h := range hl {
				loads[i] += int64(h.C)
			}
		}
		scratch.Reinit(k, lists, loads)

		wantSeed := Greedy(fresh)
		fresh.Reset()
		want := BranchAndBoundWith(fresh, wantSeed, NewBudget(0), BoundResidual)
		gotSeed := Greedy(scratch)
		scratch.Reset()
		got := BranchAndBoundWith(scratch, gotSeed, NewBudget(0), BoundResidual)
		if got.Failed != want.Failed || got.Visited != want.Visited || !reflect.DeepEqual(got.Sel, want.Sel) {
			t.Errorf("trial %d: reused scratch {failed %d visited %d sel %v} != fresh {failed %d visited %d sel %v}",
				trial, got.Failed, got.Visited, got.Sel, want.Failed, want.Visited, want.Sel)
		}
	}
}

// FuzzBoundEquivalence derives a tiny instance from the fuzz input and
// asserts the bound-equivalence property (static damage == residual
// damage == exhaustive damage; residual visits no more states).
func FuzzBoundEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), uint8(12), uint8(2), uint8(3))
	f.Add(int64(42), uint8(6), uint8(3), uint8(20), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, m8, r8, b8, s8, k8 uint8) {
		m := 2 + int(m8%9)
		r := 1 + int(r8%3)
		if r > m {
			r = m
		}
		b := 1 + int(b8%24)
		s := 1 + int(s8%3)
		k := 1 + int(k8)%m
		if k >= m {
			k = m - 1
		}
		if k < 1 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		in, _ := randomHitInstance(rng, m, r, b, s, k, 2)
		ex := Exhaustive(in)
		seedRes := Greedy(in)
		in.Reset()
		static := BranchAndBoundWith(in, seedRes, NewBudget(0), BoundStatic)
		resid := BranchAndBoundWith(in, seedRes, NewBudget(0), BoundResidual)
		if static.Failed != ex.Failed || resid.Failed != ex.Failed {
			t.Fatalf("damage static=%d residual=%d exhaustive=%d (m=%d r=%d b=%d s=%d k=%d)",
				static.Failed, resid.Failed, ex.Failed, m, r, b, s, k)
		}
		if resid.Visited > static.Visited {
			t.Fatalf("residual visited %d > static %d", resid.Visited, static.Visited)
		}
	})
}
