package search

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// pairOverlap is the brute-force ov(i, j): the total weight of the
// objects both hit lists hold, each counted once.
func pairOverlap(a, b []Hit, w []int64) int64 {
	in := make(map[int32]bool, len(a))
	for _, h := range a {
		in[h.Obj] = true
	}
	var ov int64
	for _, h := range b {
		if in[h.Obj] {
			if w == nil {
				ov++
			} else {
				ov += w[h.Obj]
			}
		}
	}
	return ov
}

// TestParentGainFilter pins the parent-gain filter's two primitives
// against their definitions and its effect on the scan. At random
// partial states — C = 1, C > 1 and weighted — Gains equals one
// Marginal call per candidate and MaxOverlap equals the brute-force
// pairwise maximum over later candidates, also across a wrap of its
// stamp generation. On a flat-load, node-like
// instance (r = 3, s = 2, K = 4, loads within a replica or two of each
// other, so the load cut rarely fires) the filter returns the
// static-bound result and the pinned visited count with the pinned
// number of Marginal calls. The same search with the filter's bound
// made vacuous (an overlap too large to admit a skip) was measured at
// the same 2024 visited states and 10626 Marginal calls.
func TestParentGainFilter(t *testing.T) {
	t.Run("primitives", func(t *testing.T) {
		rng := rand.New(rand.NewSource(173))
		for trial := 0; trial < 60; trial++ {
			m := 4 + rng.Intn(8)
			b := 4 + rng.Intn(25)
			s := 1 + rng.Intn(3)
			var (
				in    *HitInstance
				lists [][]Hit
				w     []int64
			)
			switch trial % 3 {
			case 0: // C = 1 strip
				in, lists = randomHitInstance(rng, m, min(3, m), b, s, k1(m), 1)
			case 1: // generic C
				in, lists = randomHitInstance(rng, m, min(3, m), b, s, k1(m), 3)
			case 2: // weighted
				w = make([]int64, b)
				for obj := range w {
					w[obj] = int64(rng.Intn(7))
				}
				in, lists = randWeightedInstance(rng, m, b, k1(m), s, w)
			}
			in.EnableResidual()
			want := make([]int64, m)
			for i := 0; i < m; i++ {
				for j := i + 1; j < m; j++ {
					want[i] = max(want[i], pairOverlap(lists[i], lists[j], w))
				}
			}
			dst := make([]int64, m)
			var chosen []int
			for step := 0; step < 12; step++ {
				start := rng.Intn(m + 1)
				for j := range dst {
					dst[j] = -7
				}
				in.Gains(start, dst)
				for j := 0; j < m; j++ {
					switch {
					case j < start && dst[j] != -7:
						t.Fatalf("trial %d chosen %v: Gains(%d) wrote dst[%d]", trial, chosen, start, j)
					case j >= start && dst[j] != int64(in.Marginal(j)):
						t.Fatalf("trial %d chosen %v: Gains(%d)[%d] = %d, Marginal %d",
							trial, chosen, start, j, dst[j], in.Marginal(j))
					}
				}
				// The overlaps are state-independent: asked at any state,
				// cached or fresh, they match the pairwise count.
				checkOverlaps := func() {
					for i := 0; i < m; i++ {
						if got := in.MaxOverlap(i); got != want[i] {
							t.Fatalf("trial %d chosen %v: MaxOverlap(%d) = %d, brute force %d", trial, chosen, i, got, want[i])
						}
					}
				}
				checkOverlaps()
				if step == 0 && trial%4 == 3 {
					// Recompute across a wrap of the stamp generation,
					// with the first generations' stamps still in place.
					in.ovGen = math.MaxUint32 // the next call wraps to 1, the first call's stamp
					in.EnableResidual()
					checkOverlaps()
				}
				if c := rng.Intn(m); !contains(chosen, c) {
					in.Add(c)
					chosen = append(chosen, c)
				}
			}
			for _, c := range chosen {
				in.Remove(c)
			}
		}
	})

	t.Run("flat", func(t *testing.T) {
		const m, b, s, k = 24, 120, 2, 4
		in := flatInstance(rand.New(rand.NewSource(179)), m, b, s, k, false)
		if lo, hi := in.Load(m-1), in.Load(0); hi-lo > 2 {
			t.Fatalf("loads %d..%d are not flat", lo, hi)
		}
		want := Exhaustive(in)
		seed := Greedy(in)
		in.Reset()

		const (
			pinnedVisited = 2024
			pinnedCalls   = 216
			vacuousCalls  = 10626 // the same search with no skip admitted
		)
		got, calls := countedRun(in, seed, NewBudget(0), 1, BoundResidual)
		ref := BranchAndBound(in, seed, NewBudget(0), 1, BoundStatic)
		if got.Failed != want.Failed || !got.Exact || !reflect.DeepEqual(got.Sel, ref.Sel) {
			t.Fatalf("filter (%d, %v, exact=%v), static (%d, %v), exhaustive %d",
				got.Failed, got.Sel, got.Exact, ref.Failed, ref.Sel, want.Failed)
		}
		if got.Visited != pinnedVisited || calls != pinnedCalls {
			t.Errorf("filter: visited %d, %d Marginal calls; pinned %d and %d (vacuous filter: %d calls)",
				got.Visited, calls, pinnedVisited, pinnedCalls, vacuousCalls)
		}
	})
}

// flatInstance builds a node-like HitInstance in canonical order: b
// objects with r = 3 replicas each, every replica placed on a
// least-loaded candidate (random tie-break), so loads differ by at most
// one replica. weighted draws object weights 1..4 (weighted loads then
// spread more).
func flatInstance(rng *rand.Rand, m, b, s, k int, weighted bool) *HitInstance {
	const r = 3
	lists := make([][]Hit, m)
	cnt := make([]int, m)
	for obj := 0; obj < b; obj++ {
		for rep := 0; rep < r; rep++ {
			best := -1
			for _, c := range rng.Perm(m) {
				if n := len(lists[c]); n > 0 && lists[c][n-1].Obj == int32(obj) {
					continue
				}
				if best < 0 || cnt[c] < cnt[best] {
					best = c
				}
			}
			lists[best] = append(lists[best], Hit{Obj: int32(obj), C: 1})
			cnt[best]++
		}
	}
	var w []int64
	if weighted {
		w = make([]int64, b)
		for obj := range w {
			w[obj] = int64(1 + rng.Intn(4))
		}
	}
	in := NewHitInstance(s, b)
	in.Assign(k, lists, w, nil, true)
	return in
}
