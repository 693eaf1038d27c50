package search

import "sort"

// This file holds the two decisions every adapter over the drivers
// shares — the node, domain and constrained engines, the incremental
// adversary session and the spread pass's candidate scorer all call
// these rather than re-deriving them:
//
//   - the canonical candidate order: weighted load Σ C·w descending
//     (WeightedLoads), then identity ascending (CanonicalOrder) — the
//     non-increasing Load order the drivers require, made total so a
//     rebuild and an incrementally re-sorted instance agree;
//   - the warm start (WarmSeed): Greedy's incumbent, replaced by the
//     previous witness when that witness, re-validated on the current
//     instance, does strictly more damage.

// WeightedLoads returns each hit list's weighted load Σ C·w[obj] — the
// load contract of a SetWeights instance. With w nil it returns the
// plain replica counts Σ C.
func WeightedLoads(hitLists [][]Hit, w []int64) []int64 {
	loads := make([]int64, len(hitLists))
	for i, hl := range hitLists {
		var sum int64
		for _, h := range hl {
			c := int64(h.C)
			if w != nil {
				c *= w[h.Obj]
			}
			sum += c
		}
		loads[i] = sum
	}
	return loads
}

// CanonicalOrder sorts ids into the canonical candidate order: load
// descending (loads is indexed by id), ties by id ascending. The ids
// are distinct, so the order is total.
func CanonicalOrder[L ~int | ~int64](ids []int, loads []L) {
	sort.Slice(ids, func(a, b int) bool {
		if loads[ids[a]] != loads[ids[b]] {
			return loads[ids[a]] > loads[ids[b]]
		}
		return ids[a] < ids[b]
	})
}

// WarmSeed returns the branch-and-bound incumbent for the clean
// instance in: Greedy's result, replaced by the previous witness when
// re-validating it on in does strictly more damage (warm reports the
// replacement). prev names the witness by identity and pos maps an
// identity to its current candidate position, so a witness survives
// re-sorts and rebuilds; a nil prev is the cold start. in is left
// clean.
func WarmSeed(in *HitInstance, prev, pos []int) (seed Result, warm bool) {
	seed = Greedy(in)
	in.Reset()
	if prev == nil {
		return seed, false
	}
	sel := make([]int, len(prev))
	for i, id := range prev {
		sel[i] = pos[id]
	}
	sort.Ints(sel)
	if rv := Revalidate(in, sel); rv > seed.Failed {
		return Result{Failed: rv, Sel: sel}, true
	}
	return seed, false
}

// Revalidate replays a witness selection on a (possibly moved)
// instance and returns the damage it still achieves — the warm-start
// incumbent for BranchAndBound. Because a tie never displaces the
// seed, seeding with the revalidated
// previous witness means a re-plan whose optimum did not change
// returns the same witness it started from. The instance's counters
// must be clean and are left clean.
func Revalidate(in *HitInstance, sel []int) int {
	failed := 0
	for _, i := range sel {
		failed += in.Add(i)
	}
	for _, i := range sel {
		in.Remove(i)
	}
	return failed
}
