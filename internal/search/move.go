package search

import "fmt"

// This file is the incremental half of the search core: one-replica
// move deltas over a live HitInstance, so that chains of nearly
// identical searches (candidate scoring in the spread pass, re-plans
// in a continuous reconciler) patch the CSR layout in place instead of
// rebuilding it per evaluation.
//
// A move transfers one replica of one object between two candidates.
// ApplyMove patches the hit runs, the static loads and — when the
// residual machinery has been built — the per-candidate full-load
// baselines, then restores the canonical candidate order (loads
// non-increasing, the branch-and-bound invariant; ties by the unit ids
// Assign recorded, so a moved instance stays byte-identical to a fresh
// Assign) by adjacent-swap bubbling, carrying the unit ↔ position maps
// along; the inverted object → candidate index is NOT patched, only
// marked stale, and re-derived once, with the overlap table, by the next
// residual search. A move is undone by the opposite move: the re-sort
// is canonical, so the round trip restores the layout byte for byte.
// The warm-start side of
// the contract is WarmSeed: replay the previous search's witness on the
// patched instance and seed the next BranchAndBound with whatever
// damage it still achieves, so the first prune is already tight.
//
// Moves and clones don't mix: Clone shares the CSR backing arrays that
// ApplyMove mutates, so — exactly like Assign — never apply a move
// while clones from a previous search are still live. BranchAndBound
// builds its clones after the caller's moves and discards them
// before the next one, which satisfies this by construction.

// ApplyMove transfers one replica of obj from candidate position from
// to candidate position to, patching the CSR layout, the loads and the
// residual baselines in place, and returns the two candidates' new
// positions after the canonical re-sort. The from run must hold a hit
// on obj; the to run gains one (aggregating onto an existing hit when
// the candidate already covers obj, as whole-domain adapters do).
// The instance must come from Assign with both units kept (Pos finds
// them), and its counters must be clean (between searches). The
// residual upkeep is suspended until the next residual search rebuilds
// the inverted index and the overlap table from the patched runs.
func (in *HitInstance) ApplyMove(obj, from, to int) (newFrom, newTo int) {
	m := in.Len()
	if obj < 0 || obj >= len(in.cnt) {
		panic(fmt.Sprintf("search: ApplyMove object %d out of range [0, %d)", obj, len(in.cnt)))
	}
	if from < 0 || from >= m || to < 0 || to >= m {
		panic(fmt.Sprintf("search: ApplyMove candidates (%d, %d) out of range [0, %d)", from, to, m))
	}
	if from == to {
		return from, to
	}
	wd := int64(1)
	if in.w != nil {
		wd = in.w[obj]
	}
	in.removeReplica(obj, from)
	in.addReplica(obj, to)
	in.loads[from] -= wd
	in.loads[to] += wd
	if in.prepared {
		in.full[from] -= wd
		in.full[to] += wd
		in.invStale = true // fullSum is unchanged; the index is not
	}
	in.track = false
	// Restore the canonical order: from lost load and only ever sinks
	// right, to gained load and only ever rises left. Each transposition
	// keeps the other runs sorted, so two insertion passes suffice.
	for from+1 < m && in.sortsBefore(from+1, from) {
		in.swapAdjacent(from)
		if to == from+1 {
			to = from
		}
		from++
	}
	for to > 0 && in.sortsBefore(to, to-1) {
		in.swapAdjacent(to - 1)
		if from == to-1 {
			from = to
		}
		to--
	}
	in.assertInvariants("ApplyMove")
	return from, to
}

// removeReplica drops one replica of obj from candidate pos's run:
// decrement the aggregated count, or excise the hit entirely when it
// was the last one.
func (in *HitInstance) removeReplica(obj, pos int) {
	lo, hi := int(in.offs[pos]), int(in.offs[pos+1])
	g := lo + findHit(in.hits[lo:hi], int32(obj))
	if g >= hi || in.hits[g].Obj != int32(obj) {
		panic(fmt.Sprintf("search: ApplyMove candidate %d holds no replica of object %d", pos, obj))
	}
	if in.hits[g].C > 1 {
		in.hits[g].C--
		return
	}
	in.hits = append(in.hits[:g], in.hits[g+1:]...)
	if in.objs != nil {
		in.objs = append(in.objs[:g], in.objs[g+1:]...)
	}
	for i := pos + 1; i < len(in.offs); i++ {
		in.offs[i]--
	}
}

// addReplica adds one replica of obj to candidate pos's run, inserting
// a fresh hit in object order or bumping the existing aggregate (which
// drops the C = 1 fast strip: a count of 2 no longer fits it).
func (in *HitInstance) addReplica(obj, pos int) {
	lo, hi := int(in.offs[pos]), int(in.offs[pos+1])
	g := lo + findHit(in.hits[lo:hi], int32(obj))
	if g < hi && in.hits[g].Obj == int32(obj) {
		in.hits[g].C++
		in.objs = nil // aggregated counts have outgrown the strip
		return
	}
	in.hits = append(in.hits, Hit{})
	copy(in.hits[g+1:], in.hits[g:])
	in.hits[g] = Hit{Obj: int32(obj), C: 1}
	if in.objs != nil {
		in.objs = append(in.objs, 0)
		copy(in.objs[g+1:], in.objs[g:])
		in.objs[g] = int32(obj)
	}
	for i := pos + 1; i < len(in.offs); i++ {
		in.offs[i]++
	}
}

// findHit returns the index of obj within the run (sorted by ascending
// object id), or the insertion point if absent.
func findHit(run []Hit, obj int32) int {
	lo, hi := 0, len(run)
	for lo < hi {
		mid := (lo + hi) / 2
		if run[mid].Obj < obj {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sortsBefore reports whether candidate a belongs strictly before
// candidate b in the canonical order: load descending, then unit id
// ascending.
func (in *HitInstance) sortsBefore(a, b int) bool {
	if in.loads[a] != in.loads[b] {
		return in.loads[a] > in.loads[b]
	}
	return in.ids[a] < in.ids[b]
}

// swapAdjacent exchanges candidates i and i+1: rotate their two runs
// within the flat CSR array and swap the per-candidate scalars and the
// unit ↔ position maps.
func (in *HitInstance) swapAdjacent(i int) {
	a, b, c := int(in.offs[i]), int(in.offs[i+1]), int(in.offs[i+2])
	in.hitScratch = append(in.hitScratch[:0], in.hits[a:b]...)
	copy(in.hits[a:], in.hits[b:c])
	copy(in.hits[a+(c-b):], in.hitScratch)
	if in.objs != nil {
		in.objScratch = append(in.objScratch[:0], in.objs[a:b]...)
		copy(in.objs[a:], in.objs[b:c])
		copy(in.objs[a+(c-b):], in.objScratch)
	}
	in.offs[i+1] = int32(a + (c - b))
	in.loads[i], in.loads[i+1] = in.loads[i+1], in.loads[i]
	if in.prepared {
		in.full[i], in.full[i+1] = in.full[i+1], in.full[i]
	}
	u, v := in.ids[i], in.ids[i+1]
	in.ids[i], in.ids[i+1] = v, u
	in.pos[u], in.pos[v] = i+1, i
}
