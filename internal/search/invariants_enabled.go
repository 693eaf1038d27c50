//go:build invariants

package search

import "fmt"

// InvariantsEnabled reports whether the build carries the runtime
// invariant assertions (`go test -tags invariants`).
const InvariantsEnabled = true

// assertInvariants validates the full CSR contract after a structural
// mutation (Assign, ApplyMove, CloneForMoves). It recomputes every
// derived quantity from the hit runs — the one source of truth — and
// panics on the first divergence. O(nnz) per call, plus O(m·nnz) for
// the overlap table: strictly a debug build; the !invariants stub
// compiles to nothing. It allocates nothing, so allocation pins such as
// the session's memo-hit probe loop hold under the tag too.
//
// The checked contract:
//
//	offs    monotone, 0-based, closed by len(hits)
//	runs    sorted strictly ascending by Obj, every C >= 1, Obj in range
//	objs    (C = 1 strip) mirrors hits exactly when present
//	loads   Σ C·w per run, non-increasing (canonical order), id-tied
//	ids     pos inverts them
//	index   inverted object → candidate CSR matches the forward runs,
//	        the objCands strip present exactly with objs
//	ov      every overlap-table entry equals a pairwise count (0 at
//	        s = 1), one per candidate at K >= 2, none below
//	cnt     clean (all zero) — moves are between-search operations
//	root    every candidate's clean-state Marginal
func (in *HitInstance) assertInvariants(context string) {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("search: invariants after %s: %s", context, fmt.Sprintf(format, args...)))
	}
	m := in.Len()
	numObjects := len(in.cnt)

	// offs well-formedness.
	if len(in.offs) != m+1 || in.offs[0] != 0 {
		fail("offs malformed: len %d (want %d), offs[0] %d", len(in.offs), m+1, in.offs[0])
	}
	if int(in.offs[m]) != len(in.hits) {
		fail("offs[%d] = %d does not close len(hits) = %d", m, in.offs[m], len(in.hits))
	}
	for i := 0; i < m; i++ {
		if in.offs[i] > in.offs[i+1] {
			fail("offs not monotone at %d: %d > %d", i, in.offs[i], in.offs[i+1])
		}
	}

	// Runs: sorted, positive counts, objects in range. Recompute loads.
	if len(in.loads) != m {
		fail("len(loads) = %d, want %d", len(in.loads), m)
	}
	for i := 0; i < m; i++ {
		run := in.hits[in.offs[i]:in.offs[i+1]]
		var sum int64
		for j, h := range run {
			if h.C < 1 {
				fail("candidate %d hit %d: count %d < 1", i, j, h.C)
			}
			if h.Obj < 0 || int(h.Obj) >= numObjects {
				fail("candidate %d hit %d: object %d out of range [0, %d)", i, j, h.Obj, numObjects)
			}
			if j > 0 && run[j-1].Obj >= h.Obj {
				fail("candidate %d run not strictly ascending at %d: %d >= %d", i, j, run[j-1].Obj, h.Obj)
			}
			c := int64(h.C)
			if in.w != nil {
				c *= in.w[h.Obj]
			}
			sum += c
		}
		if in.loads[i] != sum {
			fail("candidate %d load %d != Σ C·w %d", i, in.loads[i], sum)
		}
	}

	// C = 1 fast strip mirrors the runs.
	if in.objs != nil {
		if len(in.objs) != len(in.hits) {
			fail("objs strip len %d != len(hits) %d", len(in.objs), len(in.hits))
		}
		for g, h := range in.hits {
			if h.C != 1 {
				fail("objs strip present but hits[%d].C = %d", g, h.C)
			}
			if in.objs[g] != h.Obj {
				fail("objs strip diverges at %d: %d != %d", g, in.objs[g], h.Obj)
			}
		}
	}

	// Canonical candidate order: loads non-increasing, unit ids break
	// ties, and the position map inverts the id list.
	if len(in.ids) != m {
		fail("len(ids) = %d, want %d", len(in.ids), m)
	}
	for p, u := range in.ids {
		if in.pos[u] != p {
			fail("pos[%d] = %d, want %d", u, in.pos[u], p)
		}
	}
	for i := 1; i < m; i++ {
		if in.loads[i-1] < in.loads[i] {
			fail("loads not non-increasing at %d: %d < %d", i, in.loads[i-1], in.loads[i])
		}
		if in.loads[i-1] == in.loads[i] && in.ids[i-1] >= in.ids[i] {
			fail("load tie at %d not id-ordered: unit %d >= %d", i, in.ids[i-1], in.ids[i])
		}
	}

	// The index and the overlap table track the patched runs.
	in.assertInvertedFresh(fail)
	want := m // one row per candidate, none below K = 2
	if in.count < 2 {
		want = 0
	}
	if len(in.ov) != want {
		fail("overlap table has %d rows at K = %d, want %d", len(in.ov), in.count, want)
	}
	for i, v := range in.ov {
		in.assertMaxOverlap(i, v)
	}

	// Moves are between-search operations: counters clean.
	for obj, c := range in.cnt {
		if c != 0 {
			fail("counter for object %d is %d, want 0 (moves require clean state)", obj, c)
		}
	}

	// The root gain vector is a fresh Gains pass at the clean state,
	// entry by entry (Marginal reads the clean counters: no allocation).
	if len(in.root) != m {
		fail("root gain vector has %d entries, want %d", len(in.root), m)
	}
	for j, v := range in.root {
		if g := int64(in.Marginal(j)); v != g {
			fail("root gain vector has %d for candidate %d, clean-state Marginal %d", v, j, g)
		}
	}
}

// assertInvertedFresh checks the stored object → candidate index
// against the forward runs without building a second one: every holder
// list is in strictly ascending candidate order, the lists together
// hold exactly len(hits) entries, and every forward hit (i, obj, C)
// finds the entry (i, C) in obj's list. Distinct forward hits find
// distinct entries, so with the counts equal the two are the same
// relation.
func (in *HitInstance) assertInvertedFresh(fail func(string, ...any)) {
	m := in.Len()
	numObjects := len(in.cnt)
	if len(in.objOffs) != numObjects+1 || in.objOffs[0] != 0 {
		fail("objOffs malformed: len %d (want %d)", len(in.objOffs), numObjects+1)
	}
	if len(in.objHits) != len(in.hits) || int(in.objOffs[numObjects]) != len(in.hits) {
		fail("len(objHits) = %d, objOffs closes at %d, want len(hits) = %d", len(in.objHits), in.objOffs[numObjects], len(in.hits))
	}
	if (in.objCands != nil) != (in.objs != nil) || in.objCands != nil && len(in.objCands) != len(in.objHits) {
		fail("objCands strip (len %d, present %v) does not follow the objs strip (present %v)",
			len(in.objCands), in.objCands != nil, in.objs != nil)
	}
	for j := 0; j < numObjects; j++ {
		lo, hi := in.objOffs[j], in.objOffs[j+1]
		if lo > hi {
			fail("objOffs not monotone at object %d: %d > %d", j, lo, hi)
		}
		for x := lo; x < hi; x++ {
			if x > lo && in.objHits[x-1].Cand >= in.objHits[x].Cand {
				fail("object %d holder list not strictly ascending at %d: %d >= %d", j, x, in.objHits[x-1].Cand, in.objHits[x].Cand)
			}
			if in.objCands != nil && in.objCands[x] != in.objHits[x].Cand {
				fail("objCands strip diverges at %d: %d != %d", x, in.objCands[x], in.objHits[x].Cand)
			}
		}
	}
	for i := 0; i < m; i++ {
		for _, h := range in.hits[in.offs[i]:in.offs[i+1]] {
			x := in.holderAt(h.Obj, i)
			if x >= int(in.objOffs[h.Obj+1]) || int(in.objHits[x].Cand) != i || in.objHits[x].C != h.C {
				fail("object %d has no inverted entry (cand %d, C %d)", h.Obj, i, h.C)
			}
		}
	}
}

// assertGainWithinLoad checks the premise the final-level scan cut
// rests on: a candidate's marginal gain never exceeds its load (both in
// weight units with object weights). An instance breaking it would make
// the cut drop a maximizer, so the scan panics, naming the candidate.
func assertGainWithinLoad(cand, gain int, load int64) {
	if int64(gain) > load {
		panic(fmt.Sprintf("search: invariants in final-level scan: candidate %d has Marginal %d > Load %d", cand, gain, load))
	}
}

// assertSkipWithinBound checks the parent-gain filter on a candidate
// the final-level scan is skipping: its true marginal gain must not
// exceed the bound gP[cand] + maxOv(parent) the skip was decided on. A
// bound understated by the instance would make the scan drop a
// maximizer, so the check panics, naming both candidates.
func assertSkipWithinBound(in *HitInstance, parent, cand int, parentGain, ov int64) {
	if g := int64(in.Marginal(cand)); g > parentGain+ov {
		panic(fmt.Sprintf("search: invariants in final-level scan: candidate %d below parent candidate %d has Marginal %d > parent gain %d + max overlap %d",
			cand, parent, g, parentGain, ov))
	}
}

// assertTailWithinBound is assertSkipWithinBound for every candidate
// j >= from: the scan leaves them all out at once when the suffix
// maximum of the parent's gains shows that none can pass the filter.
func assertTailWithinBound(in *HitInstance, parent, from int, gp []int64, ov int64) {
	for j := from; j < in.Len(); j++ {
		assertSkipWithinBound(in, parent, j, gp[j], ov)
	}
}

// assertGainsFresh audits a gain vector kept by patches against
// Marginal, candidate by candidate, without allocating: the vector of a
// search node with two or more picks left (prefix is the node), where a
// wrong entry would make the child skip or the scan drop a maximizer,
// and Greedy's after every Add and Remove (prefix is its selection),
// where it would change a pick. The check panics, naming the prefix and
// the first wrong candidate.
func assertGainsFresh(in *HitInstance, prefix []int, g []int64) {
	for j := range in.Len() {
		if v := int64(in.Marginal(j)); g[j] != v {
			panic(fmt.Sprintf("search: invariants at node %v: gain vector has %d for candidate %d, Marginal %d",
				prefix, g[j], j, v))
		}
	}
}

// assertChildSkipSound checks a child the search is skipping before Add,
// with picks more picks below it: applied, no completion of picks
// candidates past it may reach the snapshot (a tie included, since the
// leaves report ties). The completions are enumerated, cut only by
// their loads (see reaches), so the check rests on none of the gain,
// overlap or rest bounds it audits. It panics naming the prefix and the
// candidate, and leaves the state as it found it.
func assertChildSkipSound(in *HitInstance, prefix []int, cand, picks, failed int, snap int64) {
	f := failed + in.Add(cand)
	bad := reaches(in, cand+1, picks, snap-int64(f))
	in.Remove(cand)
	if bad {
		panic(fmt.Sprintf("search: invariants at node %v: skipped child %d with %d picks below it reaches snapshot %d",
			prefix, cand, picks, snap))
	}
}

// assertNodePruneSound checks a node the search leaves at entry, before
// charging a child: with picks picks left among the candidates from
// start on, no completion may reach the snapshot (a tie included, since
// the leaves report ties). Like assertChildSkipSound it enumerates the
// completions, cut only by their loads, so the check rests on none of
// the gain, overlap or node bounds it audits. It panics naming the
// prefix, and leaves the state as it found it.
func assertNodePruneSound(in *HitInstance, prefix []int, start, picks, failed int, snap int64) {
	if reaches(in, start, picks, snap-int64(failed)) {
		panic(fmt.Sprintf("search: invariants at node %v: pruned at entry with %d picks left from candidate %d, reaches snapshot %d",
			prefix, picks, start, snap))
	}
}

// reaches reports whether some picks candidates from start on add at
// least need failed objects (weight) to the current state, by
// depth-first enumeration. A branch is cut once the loads of the next
// picks candidates fall short of need: Marginal <= Load and loads are
// non-increasing, so no later completion can make it up.
func reaches(in *HitInstance, start, picks int, need int64) bool {
	if need <= 0 {
		return true
	}
	for j := start; picks > 0 && j <= in.Len()-picks; j++ {
		var window int64
		for x := j; x < j+picks; x++ {
			window = satAdd(window, in.Load(x))
		}
		if window < need {
			return false
		}
		g := in.Add(j)
		ok := reaches(in, j+1, picks-1, need-int64(g))
		in.Remove(j)
		if ok {
			return true
		}
	}
	return false
}

// assertMaxOverlap audits overlap-table entry i against a brute-force
// pairwise count: for every later candidate j, the weight of the
// objects runs i and j share, found by merging the two sorted runs. At
// s = 1 the entry must be 0 (see MaxOverlap).
func (in *HitInstance) assertMaxOverlap(i int, got int64) {
	var want int64
	a := in.run(i)
	for j := i + 1; j < in.Len() && in.s > 1; j++ {
		var ov int64
		b := in.run(j)
		for x, y := 0, 0; x < len(a) && y < len(b); {
			switch {
			case a[x].Obj < b[y].Obj:
				x++
			case a[x].Obj > b[y].Obj:
				y++
			default:
				w := int64(1)
				if in.w != nil {
					w = in.w[a[x].Obj]
				}
				ov += w
				x++
				y++
			}
		}
		want = max(want, ov)
	}
	if got != want {
		panic(fmt.Sprintf("search: invariants in the overlap table: candidate %d has max overlap %d, pairwise count %d", i, got, want))
	}
}
