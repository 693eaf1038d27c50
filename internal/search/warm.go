package search

import (
	"cmp"
	"fmt"
	"slices"
)

// This file is the one way into the search core. Every adapter over
// the drivers — the node, domain and constrained engines, the
// incremental adversary session and the spread pass's candidate scorer
// — hands Assign its hits by unit (a node or a domain), and reads the
// answer back through Units, so the decisions they share are made here
// once:
//
//   - the candidate set and the canonical order: units with positive
//     weighted load Σ C·w by that load descending, then idle units by
//     id ascending (CanonicalOrder) — the non-increasing Load order the
//     drivers require, made total so a rebuild and an incrementally
//     re-sorted instance agree;
//   - the unit ↔ position maps, owned by the instance and kept current
//     by ApplyMove's re-sort;
//   - the warm start (WarmSeed): Greedy's incumbent, replaced by the
//     previous witness when that witness, re-validated on the current
//     instance, does strictly more damage.

// Assign (re)builds the instance for a new search: k picks among the
// units ids (nil: every unit of byID), where byID[u] is unit u's hit
// list, sorted by ascending object id with at most one entry per
// object, and w the optional object weights (nil: unit weights).
// Units with positive weighted load come first, in the canonical
// order; idle units follow by ascending id — all of them when keepIdle
// is set (a later ApplyMove may load any unit), otherwise only as many
// as k needs. The instance remembers which unit sits at which position
// (Units, Pos) and keeps that current across moves. Like reinit it
// builds every table a search reads, expects clean counters and panics
// unless 0 <= k <= len(ids); in steady state it allocates nothing.
func (in *HitInstance) Assign(k int, byID [][]Hit, w []int64, ids []int, keepIdle bool) {
	in.ids = in.ids[:0]
	if ids == nil {
		for u := range byID {
			in.ids = append(in.ids, u)
		}
	} else {
		in.ids = append(in.ids, ids...)
	}
	if k < 0 || k > len(in.ids) {
		panic(fmt.Sprintf("search: %d picks among %d units", k, len(in.ids)))
	}
	sc := &in.sc
	sc.unitLoads = slices.Grow(sc.unitLoads[:0], len(byID))[:len(byID)]
	in.pos = slices.Grow(in.pos[:0], len(byID))[:len(byID)]
	for i := range in.pos {
		in.pos[i] = -1
	}
	busy := 0
	for _, u := range in.ids {
		sc.unitLoads[u] = weightedLoad(byID[u], w)
		if sc.unitLoads[u] > 0 {
			busy++
		}
	}
	CanonicalOrder(in.ids, sc.unitLoads)
	if !keepIdle {
		in.ids = in.ids[:max(busy, k)]
	}
	sc.lists, sc.listLoads = sc.lists[:0], sc.listLoads[:0]
	for p, u := range in.ids {
		in.pos[u] = p
		sc.lists = append(sc.lists, byID[u])
		sc.listLoads = append(sc.listLoads, sc.unitLoads[u])
	}
	in.reinit(k, sc.lists, sc.listLoads, w)
	in.assertInvariants("Assign")
}

// Units maps a selection of candidate positions to unit ids in place
// and sorts them ascending, returning sel: the translation of a
// driver's Result.Sel back to the units Assign was given.
func (in *HitInstance) Units(sel []int) []int {
	for i, p := range sel {
		sel[i] = in.ids[p]
	}
	slices.Sort(sel)
	return sel
}

// Pos returns unit u's current candidate position, or -1 when Assign
// left u out.
func (in *HitInstance) Pos(u int) int { return in.pos[u] }

// weightedLoad returns a hit list's weighted load Σ C·w[obj] — the load
// contract of a weighted instance; with w nil the plain replica count.
func weightedLoad(hl []Hit, w []int64) int64 {
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

// CanonicalOrder sorts ids into the canonical candidate order: load
// descending (loads is indexed by id), ties by id ascending. The ids
// are distinct, so the order is total.
func CanonicalOrder[L ~int | ~int64](ids []int, loads []L) {
	slices.SortFunc(ids, func(a, b int) int {
		if c := cmp.Compare(loads[b], loads[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// WarmSeed returns the branch-and-bound incumbent for the clean
// instance in: Greedy's result, replaced by the previous witness when
// re-validating it on in does strictly more damage (warm reports the
// replacement). prev names the witness by unit id, so it survives
// re-sorts and re-Assigns that keep its units; a nil prev is the cold
// start. in is left clean.
func WarmSeed(in *HitInstance, prev []int) (seed Result, warm bool) {
	seed = Greedy(in)
	if prev == nil {
		return seed, false
	}
	sel := make([]int, len(prev))
	for i, u := range prev {
		sel[i] = in.pos[u]
	}
	slices.Sort(sel)
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
