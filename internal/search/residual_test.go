package search

import (
	"math/rand"
	"reflect"
	"strings"
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
	in.reinit(k, ordLists, ordLoads, nil)
	return in, ordLists
}

// TestResidualBoundEquivalence is the bound-soundness property test the
// ablation switch rests on: on random instances, residual-bound B&B,
// static-bound B&B, and Exhaustive return identical damage (and the two
// B&B modes the identical witness, since they walk the same tree), while
// the residual mode never visits more states than the static mode, and
// fewer somewhere: its gain-vector bounds only cut subtrees no leaf of
// which reaches the incumbent.
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
		static := BranchAndBound(in, seed, NewBudget(0), 1, BoundStatic)
		resid := BranchAndBound(in, seed, NewBudget(0), 1, BoundResidual)

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
		t.Error("residual bound never pruned deeper than static across 60 random trials — the gain-vector bounds are likely broken")
	}
}

// TestResidualBoundUnderBudget pins the shared budget semantics for both
// bound modes: exactly one state per unit, incumbent within [greedy,
// exact], Exact cleared.
func TestResidualBoundUnderBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	in, _ := randomHitInstance(rng, 14, 3, 120, 2, 5, 1)
	seed := Greedy(in)
	full := BranchAndBound(in, seed, NewBudget(0), 1, BoundResidual)
	for _, bound := range []Bound{BoundStatic, BoundResidual} {
		for _, limit := range []int64{1, 9, 40} {
			bud := NewBudget(limit)
			res := BranchAndBound(in, seed, bud, 1, bound)
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

// countedRun runs BranchAndBound's search and also returns the
// Marginal calls its final-level scans made (the invariant checks'
// calls are not counted).
func countedRun(in *HitInstance, seed Result, bud *Budget, workers int, bound Bound) (Result, int64) {
	ps := newSearchRun(in, seed, bud, workers, bound)
	res := ps.run()
	return res, ps.marginals
}

// TestDuplicateCollapse pins the dedup contract on a partition-style
// instance: pairs of candidates with identical hit lists are explored
// once, at the exhaustive damage, and the final-level Marginal scan
// skips the duplicates too. The dedup-blind reference — the same search
// with every duplicate explored — was measured on an instance without
// duplicate detection: 28 visited states and 40 Marginal calls, against
// the 13 and 12 pinned here.
func TestDuplicateCollapse(t *testing.T) {
	// 4 groups of 2 identical candidates; group g hosts objects
	// 3g..3g+2 (with C = 1), s = 2, k = 3.
	const groups, b, s, k = 4, 12, 2, 3
	const (
		blindVisited, blindCalls = 28, 40
		dedupVisited, dedupCalls = 13, 12
	)
	lists := make([][]Hit, 2*groups)
	loads := make([]int64, 2*groups)
	for g := 0; g < groups; g++ {
		for o := 0; o < 3; o++ {
			obj := 3*g + o
			for _, c := range []int{2 * g, 2*g + 1} {
				lists[c] = append(lists[c], Hit{Obj: int32(obj), C: 1})
				loads[c] += 1
			}
		}
	}
	hit := NewHitInstance(s, b)
	hit.reinit(k, lists, loads, nil)
	for i := 1; i < 2*groups; i++ {
		wantDup := i%2 == 1 // the second member of each pair duplicates the first
		if hit.DupOfPrev(i) != wantDup {
			t.Errorf("DupOfPrev(%d) = %v, want %v", i, hit.DupOfPrev(i), wantDup)
		}
	}

	want := Exhaustive(hit).Failed
	seed := Greedy(hit)
	dedup, calls := countedRun(hit, seed, NewBudget(0), 1, BoundStatic)
	if dedup.Failed != want || !dedup.Exact {
		t.Fatalf("damage: dedup %d exact=%v, exhaustive %d", dedup.Failed, dedup.Exact, want)
	}
	// The final-level scan is uncounted by the budget, so its skip shows
	// up in Marginal calls, not Visited: every scan drops the second
	// member of each pair past its start.
	if dedup.Visited != dedupVisited || calls != dedupCalls {
		t.Errorf("dedup: visited %d, %d Marginal calls; pinned %d and %d (blind: %d and %d)",
			dedup.Visited, calls, dedupVisited, dedupCalls, blindVisited, blindCalls)
	}
}

// TestScanLastCut pins the final-level scan cut by Marginal calls. One
// heavy candidate holds five objects and nine load-1 candidates hold one
// disjoint object each (s = 1), searched from an empty incumbent so the
// root is not pruned. Once the heavy candidate's gain of 5 is in hand
// (K = 1), or a tail candidate's gain of 1 is (K = 2, below the heavy
// pick), every later candidate's load is at most that gain, so each
// scan stops after its first Marginal call — where a full scan would
// make nine or ten.
func TestScanLastCut(t *testing.T) {
	const b, s = 14, 1
	lists := [][]Hit{{{Obj: 0, C: 1}, {Obj: 1, C: 1}, {Obj: 2, C: 1}, {Obj: 3, C: 1}, {Obj: 4, C: 1}}}
	loads := []int64{5}
	for obj := int32(5); obj < b; obj++ {
		lists = append(lists, []Hit{{Obj: obj, C: 1}})
		loads = append(loads, 1)
	}
	for _, k := range []int{1, 2} {
		hit := NewHitInstance(s, b)
		hit.reinit(k, lists, loads, nil)
		want := Exhaustive(hit)
		for _, bound := range []Bound{BoundResidual, BoundStatic} {
			got, calls := countedRun(hit, Result{}, NewBudget(0), 1, bound)
			if got.Failed != want.Failed || !got.Exact || !reflect.DeepEqual(got.Sel, want.Sel) {
				t.Errorf("k=%d %v: got (%d, %v, exact=%v), exhaustive (%d, %v)",
					k, bound, got.Failed, got.Sel, got.Exact, want.Failed, want.Sel)
			}
			if calls != 1 {
				t.Errorf("k=%d %v: %d Marginal calls, want 1 — the scan did not stop at the first load <= bestGain", k, bound, calls)
			}
		}
	}

	// A gain that exactly ties the snapshot is still scanned and
	// reported, so the reducer can apply the lex tie-break: against a
	// non-seed incumbent recorded as (5, {9}), the scan's tie {0} wins.
	hit := NewHitInstance(s, b)
	hit.reinit(1, lists, loads, nil)
	ps := newSearchRun(hit, Result{Failed: 5, Sel: []int{9}}, NewBudget(0), 1, BoundStatic)
	ps.bestIsSeed = false
	w := ps.peers[0]
	w.init()
	w.scanLast(0, 0)
	if ps.best.Failed != 5 || !reflect.DeepEqual(ps.best.Sel, []int{0}) || w.marginals != 1 {
		t.Errorf("tie at the snapshot: best (%d, %v) after %d Marginal calls, want (5, [0]) after 1",
			ps.best.Failed, ps.best.Sel, w.marginals)
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
		scratch.reinit(k, lists, loads, nil)

		wantSeed := Greedy(fresh)
		want := BranchAndBound(fresh, wantSeed, NewBudget(0), 1, BoundResidual)
		gotSeed := Greedy(scratch)
		got := BranchAndBound(scratch, gotSeed, NewBudget(0), 1, BoundResidual)
		if got.Failed != want.Failed || got.Visited != want.Visited || !reflect.DeepEqual(got.Sel, want.Sel) {
			t.Errorf("trial %d: reused scratch {failed %d visited %d sel %v} != fresh {failed %d visited %d sel %v}",
				trial, got.Failed, got.Visited, got.Sel, want.Failed, want.Visited, want.Sel)
		}
	}
}

// TestReinitRejectsBadShape pins reinit's shape contract: k picks need
// k candidates, and loads must match the hit lists one to one. Without
// it, K = 3 over two candidates made BranchAndBound and Exhaustive claim
// an exact empty attack and Greedy index out of range. The panic names
// both numbers.
func TestReinitRejectsBadShape(t *testing.T) {
	lists := [][]Hit{{{Obj: 0, C: 1}}, {{Obj: 1, C: 1}}}
	for _, tc := range []struct {
		name  string
		k     int
		loads []int64
		want  string
	}{
		{"k above candidates", 3, []int64{1, 1}, "3 picks among 2 candidates"},
		{"negative k", -1, []int64{1, 1}, "-1 picks among 2 candidates"},
		{"short loads", 1, []int64{1}, "1 loads for 2 candidates"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one naming %q", msg, tc.want)
				}
			}()
			NewHitInstance(1, 2).reinit(tc.k, lists, tc.loads, nil)
		})
	}
	in := NewHitInstance(1, 2)
	in.reinit(2, lists, []int64{1, 1}, nil) // k == len: every candidate chosen
	if res := BranchAndBound(in, Result{}, NewBudget(0), 1, BoundResidual); res.Failed != 2 || !res.Exact {
		t.Errorf("k = m: got (%d, exact=%v), want (2, exact)", res.Failed, res.Exact)
	}
}

// FuzzBoundEquivalence derives a tiny instance from the fuzz input and
// asserts the bound-equivalence property: static damage == residual
// damage == exhaustive damage, the identical witness from both bound
// modes (the driver contract fixes it: the seed on a tie, else the
// lex-smallest optimum), and residual visits no more states. With
// weighted set, random object weights go through Assign, candidates
// re-sorted into weighted canonical order.
func FuzzBoundEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), uint8(12), uint8(2), uint8(3), false)
	f.Add(int64(42), uint8(6), uint8(3), uint8(20), uint8(3), uint8(2), false)
	f.Add(int64(7), uint8(9), uint8(3), uint8(18), uint8(2), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, m8, r8, b8, s8, k8 uint8, weighted bool) {
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
		in, lists := randomHitInstance(rng, m, r, b, s, k, 2)
		if weighted {
			w := make([]int64, b)
			for obj := range w {
				w[obj] = int64(rng.Intn(6))
			}
			in.Assign(k, lists, w, nil, true)
		}
		ex := Exhaustive(in)
		seedRes := Greedy(in)
		static := BranchAndBound(in, seedRes, NewBudget(0), 1, BoundStatic)
		resid := BranchAndBound(in, seedRes, NewBudget(0), 1, BoundResidual)
		if static.Failed != ex.Failed || resid.Failed != ex.Failed {
			t.Fatalf("damage static=%d residual=%d exhaustive=%d (m=%d r=%d b=%d s=%d k=%d weighted=%v)",
				static.Failed, resid.Failed, ex.Failed, m, r, b, s, k, weighted)
		}
		if !reflect.DeepEqual(resid.Sel, static.Sel) {
			t.Fatalf("witness residual=%v static=%v (m=%d r=%d b=%d s=%d k=%d weighted=%v)",
				resid.Sel, static.Sel, m, r, b, s, k, weighted)
		}
		if resid.Visited > static.Visited {
			t.Fatalf("residual visited %d > static %d", resid.Visited, static.Visited)
		}
	})
}
