package search

import (
	"fmt"
	"math"
	"slices"
)

// This file is the one concrete instance every engine in the repository
// searches on: aggregated (object, replica-count) hits in a flat CSR
// layout, with an inverted object → candidate index, an overlap table
// and a root gain vector for the gain-vector bounds, and
// duplicate-candidate detection for branch collapse.
//
// Weighted damage: object weights w (given to Assign) switch the
// instance from counting failed objects to summing their weights —
// Add/Remove/Marginal report weight gained, and the loads are kept in
// weight units (each hit contributes C·w instead of C). The bound
// algebra is unchanged: a completion that newly fails objects of total
// weight W spends at least s·W weighted replicas on them, so failed(K)
// <= ⌊(Σ weighted loads)/s⌋ holds verbatim with "failed" read as lost
// weight. With w ≡ 1 every number — damage, witness, visited states —
// is identical to the unweighted instance; the weighted code paths are
// separate methods so unweighted searches keep their exact pre-weights
// hot loops.
//
// CSR layout contract: candidate i's hits occupy the contiguous run
// hits[offs[i]:offs[i+1]] of one flat backing array, sorted by ascending
// object id, at most one hit per (candidate, object) pair — so Add,
// Remove and Marginal stream over contiguous memory instead of chasing
// per-candidate slice headers, and duplicate candidates are detected by
// an elementwise run comparison. Callers supply candidates in
// non-increasing load order (the branch-and-bound invariant).

// Hit records that failing a candidate adds C failed replicas to object
// Obj — the aggregated accounting unit shared by every adapter (a
// node-level adapter is the special case C = 1 throughout).
type Hit struct {
	Obj int32
	C   int32
}

// candHit is one entry of the inverted (object → candidate) index: the
// object in question has C replicas on candidate Cand.
type candHit struct {
	Cand int32
	C    int32
}

// HitInstance is the incremental damage-accounting state the drivers
// search: m candidates (indexed 0..Len()-1) over aggregated hits, of
// which exactly K must be chosen. Candidate i fails every object in its
// CSR run by the recorded replica counts, and an object dies once S of
// its replicas have failed. All engine adapters — node-level (C = 1),
// whole-domain, constrained-subset, and placement's never-worse
// evaluator — build it through Assign, which also records the unit
// (node or domain id) at every candidate position: Units translates a
// selection back, Pos finds a unit, and moves keep both current.
//
// Beside the failure counters the instance keeps what the gain-vector
// bounds read: the inverted object → candidate index (patchGains walks
// it), the overlap table (MaxOverlap) and the root gain vector. All
// three depend on the runs only, never on the counters, so one copy
// serves every state of a search and every worker's Clone. Assign
// builds them and ApplyMove keeps them current, and every driver leaves
// the counters clean: between searches the instance has one state.
type HitInstance struct {
	count int   // attack-set size K
	s     int32 // failed replicas that kill an object

	// The candidate layout: written by Assign, patched in place by
	// ApplyMove, shared by Clone.
	hits  []Hit   // flat CSR: candidate i owns hits[offs[i]:offs[i+1]]
	objs  []int32 // C = 1 fast strip: hits[j].Obj when every C == 1, else nil
	offs  []int32 // len = Len()+1
	loads []int64 // static load per candidate

	// The gain-vector machinery: built by Assign, kept current by
	// ApplyMove, shared by Clone.
	objHits  []candHit // flat inverted CSR: object j owns objHits[objOffs[j]:objOffs[j+1]], ascending by candidate
	objCands []int32   // C = 1 fast strip of objHits (candidate ids only)
	objOffs  []int32   // len = numObjects+1
	ov       []int64   // the overlap table (see MaxOverlap); empty below K = 2
	root     []int64   // the root gain vector: every candidate's Marginal at the clean state

	// Weighted damage (nil = unit weights). Immutable between
	// Assign calls, shared by Clone.
	w []int64 // per-object weight; Add/Marginal return Σ w over crossings

	// Unit identities (see Assign): ids[p] is the unit at candidate
	// position p, pos[u] unit u's position or -1. They break load ties
	// in the canonical order ApplyMove restores.
	ids []int
	pos []int

	// Mutable search state (fresh per Clone).
	cnt []int32 // failed replicas per object

	sc scratch // working memory: every Clone and CloneForMoves starts its own
}

// scratch is an instance's working memory, grown on first use and kept
// for the next call. It lives in one field so that a copy resets it in
// one assignment: Clone and CloneForMoves copies are searched and moved
// concurrently with the receiver, and a slice they shared would be
// written from two goroutines.
type scratch struct {
	cursor    []int32   // buildInverted: the inverted-index fill
	ovAcc     []int64   // overlapRow: shared weight per later candidate
	ovStamp   []int32   // overlapRow: the row generation that last touched ovAcc[j]
	ovGen     int32     // overlapRow: the current row generation
	ovRows    []int     // ApplyMove: the units whose overlap rows a swap left stale, then the rows to redo
	greedy    []int64   // Greedy: its gain vector, and the copy a kept swap restores
	gains     []int64   // backing of the driver's gain vectors and bound rows (see gainScratch)
	gainRows  [][]int64 // gainScratch's per-depth views of gains: vectors, rest rows, node rows
	gainOK    []bool    // gainScratch's per-depth freshness flags
	gainLo    []int     // gainScratch's per-depth bound-row coverage
	rotHits   []Hit     // ApplyMove: run rotation
	rotObjs   []int32   // ApplyMove: the C = 1 strip rotation
	unitLoads []int64   // Assign: weighted load per unit id
	lists     [][]Hit   // Assign: hit lists in candidate order
	listLoads []int64   // Assign: loads in candidate order
}

// NewHitInstance returns an empty instance over numObjects objects with
// fatality threshold s; Assign populates (and re-populates) its
// candidate set. The two-step construction lets the constrained engines
// stamp one instance per worker and reuse its allocations across every
// C(D, d) domain subset.
func NewHitInstance(s, numObjects int) *HitInstance {
	return &HitInstance{
		s:       int32(s),
		cnt:     make([]int32, numObjects),
		objOffs: make([]int32, numObjects+1),
	}
}

// reinit reconfigures the instance in place for a new search — k picks
// among the given candidates, object obj worth w[obj] (nil: unit
// weights) — reusing prior allocations: the layout half of Assign,
// which callers use instead. hitLists[i] must be sorted by ascending
// object id with at most one entry per object; loads must be
// non-increasing with loads[i] = Σ C·w[obj] over hitLists[i] (zero-load
// padding candidates carry empty lists): the replica-counting bound
// divides that weighted spend by S and assumes the first rem remaining
// candidates carry the most load, so BranchAndBound verifies the order
// and panics rather than return a wrong optimum. k must lie in
// 0..len(hitLists), loads must match hitLists one to one and w the
// objects; reinit panics otherwise, since no driver can choose more
// candidates than there are. With weights, Add/Remove/Marginal report
// the weight of the objects crossing the S threshold instead of their
// count. reinit builds everything a search reads: the CSR runs, the
// inverted index, the overlap table and the root gain vector, one Gains
// sweep at the clean state. The failure counters must be clean (every
// driver leaves them so) and are not touched, so a caller sharing one
// instance across sub-searches keeps one object-counter array. Unit
// identities are Assign's to set.
func (in *HitInstance) reinit(k int, hitLists [][]Hit, loads, w []int64) {
	if len(loads) != len(hitLists) {
		panic(fmt.Sprintf("search: %d loads for %d candidates", len(loads), len(hitLists)))
	}
	if k < 0 || k > len(hitLists) {
		panic(fmt.Sprintf("search: %d picks among %d candidates", k, len(hitLists)))
	}
	if w != nil && len(w) != len(in.cnt) {
		panic(fmt.Sprintf("search: %d object weights for %d objects", len(w), len(in.cnt)))
	}
	in.count, in.w = k, w

	in.offs = append(in.offs[:0], 0)
	in.hits = in.hits[:0]
	for _, hl := range hitLists {
		in.hits = append(in.hits, hl...)
		in.offs = append(in.offs, int32(len(in.hits)))
	}
	in.loads = append(in.loads[:0], loads...)

	// The C = 1 fast strip: the node-level adapters' case, where the
	// 4-byte object stream halves the memory traffic of the hot
	// Add/Remove/Marginal loops. Checked before it is filled, so an
	// aggregated instance never allocates a strip it then drops.
	in.objs = in.objs[:0]
	if slices.ContainsFunc(in.hits, func(h Hit) bool { return h.C != 1 }) {
		in.objs = nil
	} else {
		for _, h := range in.hits {
			in.objs = append(in.objs, h.Obj)
		}
	}

	in.buildInverted()
	in.buildOverlaps()
	in.root = slices.Grow(in.root[:0], in.Len())[:in.Len()]
	in.Gains(in.root)
}

// buildInverted (re)derives the object → candidate index from the
// current CSR runs: count, prefix-sum, fill.
func (in *HitInstance) buildInverted() {
	m := in.Len()
	for i := range in.objOffs {
		in.objOffs[i] = 0
	}
	for _, h := range in.hits {
		in.objOffs[h.Obj+1]++
	}
	for i := 1; i < len(in.objOffs); i++ {
		in.objOffs[i] += in.objOffs[i-1]
	}
	if cap(in.objHits) < len(in.hits) {
		in.objHits = make([]candHit, len(in.hits))
	}
	in.objHits = in.objHits[:len(in.hits)]
	cursor := slices.Grow(in.sc.cursor[:0], len(in.objOffs)-1)[:len(in.objOffs)-1]
	in.sc.cursor = cursor
	copy(cursor, in.objOffs)
	for i := 0; i < m; i++ {
		for _, h := range in.run(i) {
			in.objHits[cursor[h.Obj]] = candHit{Cand: int32(i), C: h.C}
			cursor[h.Obj]++
		}
	}
	in.objCands = in.objCands[:0]
	if in.objs != nil {
		for _, ch := range in.objHits {
			in.objCands = append(in.objCands, ch.Cand)
		}
	} else {
		in.objCands = nil
	}
}

// run returns candidate i's contiguous hit run.
func (in *HitInstance) run(i int) []Hit {
	return in.hits[in.offs[i]:in.offs[i+1]]
}

func runsEqual(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Len returns the number of candidates m.
func (in *HitInstance) Len() int { return len(in.offs) - 1 }

// K returns the attack-set size.
func (in *HitInstance) K() int { return in.count }

// S returns how many failed replicas fail an object (the divisor of the
// replica-counting bound).
func (in *HitInstance) S() int { return int(in.s) }

// Load returns candidate i's static replica load (in weight units with
// object weights): failing i can fail at most Load(i) replicas. It bounds
// i's damage from any state — 0 <= Marginal(i) <= Load(i) — which the
// final-level scan cut relies on.
func (in *HitInstance) Load(i int) int64 { return in.loads[i] }

// Add fails candidate i, returning the number of newly failed objects
// (their total weight with object weights): one pass over run i's
// threshold counters. Remove walks the exact inverse.
func (in *HitInstance) Add(i int) int {
	if in.w != nil {
		return in.addW(i)
	}
	newly := 0
	s := in.s
	if in.objs != nil {
		for _, obj := range in.objs[in.offs[i]:in.offs[i+1]] {
			in.cnt[obj]++
			if in.cnt[obj] == s {
				newly++
			}
		}
		return newly
	}
	for _, h := range in.run(i) {
		old := in.cnt[h.Obj]
		nw := old + h.C
		in.cnt[h.Obj] = nw
		if old < s && nw >= s {
			newly++
		}
	}
	return newly
}

// addW is Add with object weights: the return value is the total weight of
// the newly dead objects.
func (in *HitInstance) addW(i int) int {
	s := in.s
	newly := 0
	for _, h := range in.run(i) {
		old := in.cnt[h.Obj]
		nw := old + h.C
		in.cnt[h.Obj] = nw
		if old < s && nw >= s {
			newly += int(in.w[h.Obj])
		}
	}
	return newly
}

// Remove reverts Add(i).
func (in *HitInstance) Remove(i int) {
	if in.objs != nil {
		for _, obj := range in.objs[in.offs[i]:in.offs[i+1]] {
			in.cnt[obj]--
		}
		return
	}
	for _, h := range in.run(i) {
		in.cnt[h.Obj] -= h.C
	}
}

// Marginal returns how many objects Add(i) would newly fail, without
// mutating state (the objects' total weight with object weights). It never
// exceeds the load: 0 <= Marginal(i) <= Load(i), checked by the
// final-level scan under the invariants build tag.
func (in *HitInstance) Marginal(i int) int {
	if in.w != nil {
		return in.marginalW(i)
	}
	gain := 0
	if in.objs != nil {
		cross := in.s - 1
		for _, obj := range in.objs[in.offs[i]:in.offs[i+1]] {
			if in.cnt[obj] == cross {
				gain++
			}
		}
		return gain
	}
	s := in.s
	for _, h := range in.run(i) {
		if c := in.cnt[h.Obj]; c < s && c+h.C >= s {
			gain++
		}
	}
	return gain
}

// marginalW is Marginal with object weights.
func (in *HitInstance) marginalW(i int) int {
	gain := 0
	s := in.s
	for _, h := range in.run(i) {
		if c := in.cnt[h.Obj]; c < s && c+h.C >= s {
			gain += int(in.w[h.Obj])
		}
	}
	return gain
}

// Gains stores Marginal(j) in dst[j] for every candidate j, leaving
// the state untouched: one sweep over the contiguous CSR runs. The
// search runs it once per task whose node has no current gain vector
// (a stolen task off the worker's path; the root copies the root
// vector) and keeps the vector current with patchGains from there. dst
// must have room for Len() entries. Valid in any state.
func (in *HitInstance) Gains(dst []int64) {
	for j := range in.Len() {
		dst[j] = int64(in.Marginal(j))
	}
}

// patchGains turns g, every candidate's Marginal at the state before
// the latest Add(i), into the Marginals after it. Adding i moves only
// the counters of run i's objects, and an object counts towards a
// holder's Marginal while the holder's replicas would take its counter
// from below S to S or more; so the walk visits run i's objects and,
// through the inverted index, updates only the holders whose indicator
// flipped, by the object's weight (candidate i itself included). With
// C = 1 throughout, an object's holders flip only when its counter
// reaches S-1 (all gain it) or S (all lose it), so every other object
// costs one compare. About |run i|·r work instead of Gains' sweep over
// the whole CSR. With removed set it is the same patch for Remove(i),
// which moves the same counters back down (Greedy's swap phase). Valid
// only as the step right after Add(i) or Remove(i).
func (in *HitInstance) patchGains(i int, g []int64, removed bool) {
	s := in.s
	if in.objCands != nil {
		// The counter values, after the step, at which every holder's
		// indicator flips: on the way up from s-2 and s-1, on the way
		// down from s and s-1.
		gain, lose := s-1, s
		if removed {
			lose = s - 2
		}
		for _, obj := range in.objs[in.offs[i]:in.offs[i+1]] {
			var d int64
			switch in.cnt[obj] {
			case gain: // one more replica now fails it
				d = 1
			case lose: // dead, or two replicas short: nobody gains it
				d = -1
			default:
				continue
			}
			if in.w != nil {
				d *= in.w[obj]
			}
			for _, c := range in.objCands[in.objOffs[obj]:in.objOffs[obj+1]] {
				g[c] += d
			}
		}
		return
	}
	for _, h := range in.run(i) {
		// The counter moved between lo and hi = lo + C. A holder with
		// count c counts the object while the counter lies in [s-c, s):
		// with hi < s the holders with s-hi <= c < s-lo take it up as the
		// counter rises (and drop it as it falls); with hi >= s, dead at
		// the top, the holders with c >= s-lo drop it as it rises (and
		// take it up as it falls).
		lo := in.cnt[h.Obj]
		if !removed {
			lo -= h.C
		}
		if lo >= s {
			continue // dead on both sides: no holder counted it, none does now
		}
		hi := lo + h.C
		d := int64(1)
		if in.w != nil {
			d = in.w[h.Obj]
		}
		cmin, cmax := s-hi, s-lo
		if hi >= s {
			cmin, cmax, d = s-lo, math.MaxInt32, -d
		}
		if removed {
			d = -d
		}
		for _, ch := range in.objHits[in.objOffs[h.Obj]:in.objOffs[h.Obj+1]] {
			if cmin <= ch.C && ch.C < cmax {
				g[ch.Cand] += d
			}
		}
	}
}

// gainScratch lends the driver the instance's own gain vectors, Len()
// entries each, one per search depth 0..depths-1, and as many rows for
// each of the two bounds derived from them (the driver's rest and node
// rows), plus per depth a freshness flag, all false, and a row
// coverage, all math.MaxInt (no rows). A search allocates none once the
// instance has served a search as deep; Clone and CloneForMoves give
// each copy its own.
func (in *HitInstance) gainScratch(depths int) (gv, rest, node [][]int64, ok []bool, lo []int) {
	m, sc := in.Len(), &in.sc
	if n := 3 * depths * m; cap(sc.gains) < n {
		sc.gains = make([]int64, n)
	}
	sc.gainRows = sc.gainRows[:0]
	for d := 0; d < 3*depths; d++ {
		sc.gainRows = append(sc.gainRows, sc.gains[d*m:(d+1)*m])
	}
	if cap(sc.gainOK) < depths {
		sc.gainOK, sc.gainLo = make([]bool, depths), make([]int, depths)
	}
	sc.gainOK, sc.gainLo = sc.gainOK[:depths], sc.gainLo[:depths]
	clear(sc.gainOK)
	for d := range sc.gainLo {
		sc.gainLo[d] = math.MaxInt
	}
	rows := sc.gainRows
	return rows[:depths], rows[depths : 2*depths], rows[2*depths:], sc.gainOK, sc.gainLo
}

// MaxOverlap returns the largest total weight of objects that candidate
// i's run shares with a later candidate's run: max over j > i of
// Σ w(obj) over obj in both runs (objects counted once whatever their
// replica counts). Failing i raises no later candidate's marginal gain
// by more than their shared weight, which is what the gain-vector
// bounds need. At s = 1 the whole table is 0: an object counts towards
// a gain only while no replica of it has failed, so a pick only takes
// objects away from the later gains, whatever C and the weights. A
// read of the table buildOverlaps fills and ApplyMove keeps current;
// valid at K >= 2.
func (in *HitInstance) MaxOverlap(i int) int64 { return in.ov[i] }

// buildOverlaps fills the overlap table, one overlapRow per candidate.
// About |hits|·r work. K = 1 searches never read the table, so it is
// left empty there.
func (in *HitInstance) buildOverlaps() {
	in.ov = in.ov[:0]
	if in.count < 2 {
		return
	}
	for i := range in.Len() {
		in.ov = append(in.ov, in.overlapRow(i))
	}
}

// overlapRow computes MaxOverlap(i) from the current runs and inverted
// index: 0 at s = 1, else a walk of run i's objects through the index
// (whose per-object lists are in ascending candidate order, so only the
// tail past i is read), summing the shared weight per later candidate.
// The sums live in scratch stamped with a per-row generation, so a row
// costs |run i|·r whatever the number of candidates, and ApplyMove can
// redo single rows.
func (in *HitInstance) overlapRow(i int) int64 {
	if in.s == 1 {
		return 0
	}
	sc := &in.sc
	if m := in.Len(); len(sc.ovAcc) < m {
		sc.ovAcc, sc.ovStamp, sc.ovGen = make([]int64, m), make([]int32, m), 0
	}
	if sc.ovGen == math.MaxInt32 {
		clear(sc.ovStamp)
		sc.ovGen = 0
	}
	sc.ovGen++
	gen, acc, stamp := sc.ovGen, sc.ovAcc, sc.ovStamp
	var best int64
	for _, h := range in.run(i) {
		w := int64(1)
		if in.w != nil {
			w = in.w[h.Obj]
		}
		holders := in.objHits[in.objOffs[h.Obj]:in.objOffs[h.Obj+1]]
		for t := len(holders) - 1; t >= 0 && int(holders[t].Cand) > i; t-- {
			c := holders[t].Cand
			if stamp[c] != gen {
				stamp[c], acc[c] = gen, 0
			}
			acc[c] += w
			best = max(best, acc[c])
		}
	}
	in.assertMaxOverlap(i, best)
	return best
}

// DupOfPrev reports whether candidate i's (i >= 1) hit run equals
// candidate i-1's. BranchAndBound then skips the branch that chooses i
// after skipping i-1 at the same level: the damage of any such
// selection is already realized by the selection using i-1 instead.
// Common in symmetric placements (x = 0 partition chunks co-hosted on r
// nodes), singleton-domain topologies, and the zero-load candidates
// instances pad with. Computed on demand: the drivers ask once per
// candidate per search, so a precomputed table would cost the same
// comparisons whether or not a pruned search ever runs.
func (in *HitInstance) DupOfPrev(i int) bool { return runsEqual(in.run(i), in.run(i-1)) }

// CloneForMoves returns an independent editor-and-searcher: unlike
// Clone, every array a move patches — the CSR runs, offsets, loads, the
// C = 1 fast strip, the unit ids and positions, the inverted index, the
// overlap table and the root gain vector — is deep-copied, so ApplyMove
// on the clone never touches the receiver and vice versa: the primitive
// a probing session forks per worker. Only the per-object weight vector
// stays shared (immutable between Assign calls). The clone searches and
// moves without ever rebuilding; its Units and Pos follow its own
// moves, and its scratch is its own. The receiver must be between
// searches, as the clone starts clean.
func (in *HitInstance) CloneForMoves() *HitInstance {
	cp := *in
	cp.hits = slices.Clone(in.hits)
	cp.objs = slices.Clone(in.objs)
	cp.offs = slices.Clone(in.offs)
	cp.loads = slices.Clone(in.loads)
	cp.ids = slices.Clone(in.ids)
	cp.pos = slices.Clone(in.pos)
	cp.objHits = slices.Clone(in.objHits)
	cp.objCands = slices.Clone(in.objCands)
	cp.objOffs = slices.Clone(in.objOffs)
	cp.ov = slices.Clone(in.ov)
	cp.root = slices.Clone(in.root)
	cp.cnt = make([]int32, len(in.cnt))
	cp.sc = scratch{}
	cp.assertInvariants("CloneForMoves")
	return &cp
}

// Clone returns an independent searcher over the same immutable
// preprocessing: the CSR arrays, loads, inverted index, overlap table
// and root gain vector are shared (read-only during search), only the
// failure counters and the scratch are fresh — the cheap way to stamp
// out per-worker instances for BranchAndBound. The receiver must be
// between searches, as the clone starts clean.
func (in *HitInstance) Clone() *HitInstance {
	cp := *in
	cp.cnt = make([]int32, len(in.cnt))
	// Clones are searchers, not editors: unit ids stay with the receiver
	// (see the ApplyMove contract), which translates the clones'
	// selections.
	cp.ids, cp.pos = nil, nil
	cp.sc = scratch{}
	return &cp
}
