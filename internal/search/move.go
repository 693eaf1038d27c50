package search

import (
	"fmt"
	"slices"
)

// This file is the incremental half of the search core: one-replica
// move deltas over a live HitInstance, so that chains of nearly
// identical searches (candidate scoring in the spread pass, re-plans
// in a continuous reconciler) patch the instance in place instead of
// rebuilding it per evaluation.
//
// A move transfers one replica of one object between two candidates.
// ApplyMove patches the hit runs and the static loads, then restores
// the canonical candidate order (loads non-increasing, the
// branch-and-bound invariant; ties by the unit ids Assign recorded, so
// a moved instance stays byte-identical to a fresh Assign) by
// adjacent-swap bubbling, carrying the unit ↔ position maps along.
// The move keeps the gain-vector machinery Assign built current too:
//
//   - the inverted object → candidate index: the moved object's holder
//     list loses or decrements the source's entry and gains or bumps
//     the target's, and every adjacent swap relabels the two
//     candidates' entries (swapping the counts of the entries they
//     share, so each holder list stays in candidate order);
//   - the overlap table: only the rows whose shared weights or
//     later-candidate set changed are redone (overlapRow) — the two
//     moved candidates, the candidates they crossed in the re-sort, and
//     the holders of the moved object. At s = 1 every row stays 0;
//   - the root gain vector (every candidate's Marginal at the clean
//     state, which Greedy's first vector and the search's root task
//     copy) moves in O(1): the source's entry loses the object's weight
//     when its count there drops below S, the target's gains it when
//     its count reaches S, and every adjacent swap swaps two entries.
//
// So an instance never rebuilds after Assign, and the invariants build
// audits all of it against a fresh build after every move. A move is undone by the opposite move: the re-sort is
// canonical, so the round trip restores the layout byte for byte. The
// warm-start side of the contract is WarmSeed: replay the previous
// search's witness on the patched instance and seed the next
// BranchAndBound with whatever damage it still achieves, so the first
// prune is already tight.
//
// Moves and clones don't mix: Clone shares the arrays that ApplyMove
// mutates, so — exactly like Assign — never apply a move while clones
// from a previous search are still live. BranchAndBound builds its
// clones after the caller's moves and discards them before the next
// one, which satisfies this by construction. CloneForMoves copies are
// editors of their own.

// ApplyMove transfers one replica of obj from candidate position from
// to candidate position to, patching the CSR layout, the loads, the
// root gain vector, the inverted index and the overlap table in place, and returns the two candidates' new positions
// after the canonical re-sort. The from run must hold a hit on obj; the
// to run gains one (aggregating onto an existing hit when the candidate
// already covers obj, as whole-domain adapters do). The instance must
// come from Assign with both units kept (Pos finds them), and its
// counters must be clean (between searches).
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
	excised := in.removeReplica(obj, from, wd)
	inserted := in.addReplica(obj, to, wd)
	in.loads[from] -= wd
	in.loads[to] += wd
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
	if len(in.ov) > 0 {
		in.patchOverlaps(obj, from, to, excised || inserted)
	}
	in.assertInvariants("ApplyMove")
	return from, to
}

// removeReplica drops one replica of obj (weight wd) from candidate
// pos's run: decrement the aggregated count, or excise the hit entirely
// when it was the last one (reported), in the runs and in the object's
// holder list. The root vector loses wd at pos when the count drops
// below S: failing pos alone no longer kills obj.
func (in *HitInstance) removeReplica(obj, pos int, wd int64) (excised bool) {
	lo, hi := int(in.offs[pos]), int(in.offs[pos+1])
	g := lo + findHit(in.hits[lo:hi], int32(obj))
	if g >= hi || in.hits[g].Obj != int32(obj) {
		panic(fmt.Sprintf("search: ApplyMove candidate %d holds no replica of object %d", pos, obj))
	}
	if in.hits[g].C == in.s {
		in.root[pos] -= wd
	}
	x := in.holderAt(int32(obj), pos)
	if in.hits[g].C > 1 {
		in.hits[g].C--
		in.objHits[x].C--
		return false
	}
	in.hits = slices.Delete(in.hits, g, g+1)
	if in.objs != nil {
		in.objs = slices.Delete(in.objs, g, g+1)
	}
	for i := pos + 1; i < len(in.offs); i++ {
		in.offs[i]--
	}
	in.objHits = slices.Delete(in.objHits, x, x+1)
	if in.objCands != nil {
		in.objCands = slices.Delete(in.objCands, x, x+1)
	}
	for j := obj + 1; j < len(in.objOffs); j++ {
		in.objOffs[j]--
	}
	return true
}

// addReplica adds one replica of obj (weight wd) to candidate pos's
// run, inserting a fresh hit in object order (reported) or bumping the
// existing aggregate (which drops the C = 1 fast strips: a count of 2
// no longer fits them), in the runs and in the object's holder list.
// The root vector gains wd at pos when the count reaches S: failing pos
// alone now kills obj.
func (in *HitInstance) addReplica(obj, pos int, wd int64) (inserted bool) {
	lo, hi := int(in.offs[pos]), int(in.offs[pos+1])
	g := lo + findHit(in.hits[lo:hi], int32(obj))
	x := in.holderAt(int32(obj), pos) // the holder entry, or where it goes
	found := g < hi && in.hits[g].Obj == int32(obj)
	c := int32(1) // the count after the add
	if found {
		c += in.hits[g].C
	}
	if c == in.s {
		in.root[pos] += wd
	}
	if found {
		in.hits[g].C++
		in.objHits[x].C++
		in.objs, in.objCands = nil, nil // aggregated counts have outgrown the strips
		return false
	}
	in.hits = slices.Insert(in.hits, g, Hit{Obj: int32(obj), C: 1})
	if in.objs != nil {
		in.objs = slices.Insert(in.objs, g, int32(obj))
	}
	for i := pos + 1; i < len(in.offs); i++ {
		in.offs[i]++
	}
	in.objHits = slices.Insert(in.objHits, x, candHit{Cand: int32(pos), C: 1})
	if in.objCands != nil {
		in.objCands = slices.Insert(in.objCands, x, int32(pos))
	}
	for j := obj + 1; j < len(in.objOffs); j++ {
		in.objOffs[j]++
	}
	return true
}

// holderAt returns the index in objHits of candidate cand's entry in
// obj's holder list, or where that entry belongs: the lists are in
// ascending candidate order and about r long, so a linear walk.
func (in *HitInstance) holderAt(obj int32, cand int) int {
	x, end := int(in.objOffs[obj]), int(in.objOffs[obj+1])
	for x < end && int(in.objHits[x].Cand) < cand {
		x++
	}
	return x
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
// within the flat CSR array, swap the per-candidate scalars and the
// unit ↔ position maps and the two root vector entries, relabel the
// two candidates' holder entries, and carry their overlap rows across.
//
// The swap changes two rows' later-candidate sets only: the candidate
// that moves up to i gains the other as a later candidate, so its row
// becomes the larger of itself and their shared weight; the one that
// moves down to i+1 loses it, which leaves its row alone unless that
// shared weight was its maximum — then patchOverlaps redoes it. Rows a
// move changed otherwise (see there) are redone anyway, so carrying
// them across stale is harmless.
func (in *HitInstance) swapAdjacent(i int) {
	in.root[i], in.root[i+1] = in.root[i+1], in.root[i]
	shared := in.swapHolders(i)
	if len(in.ov) > 0 && in.s > 1 { // at s = 1 every row is 0
		down := in.ov[i]
		in.ov[i], in.ov[i+1] = max(in.ov[i+1], shared), down
		if shared >= down {
			in.sc.ovRows = append(in.sc.ovRows, in.ids[i])
		}
	}
	a, b, c := int(in.offs[i]), int(in.offs[i+1]), int(in.offs[i+2])
	sc := &in.sc
	sc.rotHits = append(sc.rotHits[:0], in.hits[a:b]...)
	copy(in.hits[a:], in.hits[b:c])
	copy(in.hits[a+(c-b):], sc.rotHits)
	if in.objs != nil {
		sc.rotObjs = append(sc.rotObjs[:0], in.objs[a:b]...)
		copy(in.objs[a:], in.objs[b:c])
		copy(in.objs[a+(c-b):], sc.rotObjs)
	}
	in.offs[i+1] = int32(a + (c - b))
	in.loads[i], in.loads[i+1] = in.loads[i+1], in.loads[i]
	u, v := in.ids[i], in.ids[i+1]
	in.ids[i], in.ids[i+1] = v, u
	in.pos[u], in.pos[v] = i+1, i
}

// swapHolders relabels the inverted index for swapAdjacent(i), merging
// the two runs before they rotate: an object only run i holds moves its
// entry from i to i+1, one only run i+1 holds from i+1 to i, and one
// both hold keeps its two adjacent entries in place with their counts
// exchanged, so every holder list stays in candidate order. It returns
// the runs' shared weight, which the merge meets on the way.
func (in *HitInstance) swapHolders(i int) (shared int64) {
	a, b := in.run(i), in.run(i+1)
	for x, y := 0, 0; x < len(a) || y < len(b); {
		switch {
		case y == len(b) || x < len(a) && a[x].Obj < b[y].Obj:
			in.relabel(a[x].Obj, i, i+1)
			x++
		case x == len(a) || b[y].Obj < a[x].Obj:
			in.relabel(b[y].Obj, i+1, i)
			y++
		default:
			h := in.holderAt(a[x].Obj, i)
			in.objHits[h].C, in.objHits[h+1].C = in.objHits[h+1].C, in.objHits[h].C
			if in.w != nil {
				shared += in.w[a[x].Obj]
			} else {
				shared++
			}
			x++
			y++
		}
	}
	return shared
}

// relabel moves obj's holder entry from candidate from to candidate to.
func (in *HitInstance) relabel(obj int32, from, to int) {
	x := in.holderAt(obj, from)
	in.objHits[x].Cand = int32(to)
	if in.objCands != nil {
		in.objCands[x] = int32(to)
	}
}

// patchOverlaps redoes the overlap rows a move changed, at the end of
// ApplyMove (the runs and the index are final, from and to are the
// moved candidates' final positions). A row is a maximum over the
// later candidates' shared weights, so it changes only when one of
// those weights or the set of later candidates does. The re-sort's
// swaps carried every later-set change (swapAdjacent), noting by unit
// in ovRows the rows that lost their maximum. When the move put obj
// into a run or took it out (membership), the shared weights of the
// two moved candidates with every holder of obj changed too, so their
// rows are redone; replica counts never enter a shared weight, so a
// move that only bumps or decrements counts changes none.
func (in *HitInstance) patchOverlaps(obj, from, to int, membership bool) {
	rows := in.sc.ovRows
	for k, u := range rows {
		rows[k] = in.pos[u]
	}
	if membership {
		rows = append(rows, from, to)
		for _, ch := range in.objHits[in.objOffs[obj]:in.objOffs[obj+1]] {
			rows = append(rows, int(ch.Cand))
		}
	}
	slices.Sort(rows)
	for _, p := range slices.Compact(rows) {
		in.ov[p] = in.overlapRow(p)
	}
	in.sc.ovRows = rows[:0]
}
