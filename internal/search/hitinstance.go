package search

import "fmt"

// This file is the one concrete Instance every engine in the repository
// searches on: aggregated (object, replica-count) hits in a flat CSR
// layout, with incremental residual-load accounting for the
// BoundResidual prune and duplicate-candidate detection for branch
// collapse.
//
// Weighted damage: SetWeights(w) switches the instance from counting
// failed objects to summing their weights — Add/Remove/Marginal report
// weight gained, and every quantity of the residual ledger (loads,
// resid, deadSpent) is kept in weight units (each hit contributes C·w
// instead of C). The bound algebra is unchanged: a completion that
// newly fails objects of total weight W spends at least s·W weighted
// replicas on them, so failed(K) <= ⌊(Σ weighted loads)/s⌋ holds
// verbatim with "failed" read as lost weight. With w ≡ 1 every number
// — damage, witness, visited states — is identical to the unweighted
// instance; the weighted code paths are separate methods so unweighted
// searches keep their exact pre-weights hot loops.
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

// HitInstance is the ready-made Instance over aggregated hits: candidate
// i fails every object in its CSR run by the recorded replica counts,
// and an object dies once S of its replicas have failed. All engine
// adapters — node-level (C = 1), whole-domain, constrained-subset, and
// placement's never-worse evaluator — are this type plus a
// candidate-selection policy; identity mapping (candidate index → node
// or domain id) stays on the caller's side.
//
// The instance maintains the ResidualBounder invariants incrementally:
// when an object's failed-replica count crosses S, every candidate
// holding replicas of it (via the inverted index) sheds that dead load
// from its residual, and symmetrically on the way back down. It also
// implements Deduper over adjacent identical CSR runs.
type HitInstance struct {
	count int   // attack-set size K
	s     int32 // failed replicas that kill an object

	// Immutable between Reinit calls (shared by Clone).
	hits     []Hit     // flat CSR: candidate i owns hits[offs[i]:offs[i+1]]
	objs     []int32   // C = 1 fast strip: hits[j].Obj when every C == 1, else nil
	offs     []int32   // len = Len()+1
	loads    []int64   // static load per candidate
	full     []int64   // Σ C per candidate: residual at a clean state
	fullSum  int64     // Σ full
	objHits  []candHit // flat inverted CSR: object j owns objHits[objOffs[j]:objOffs[j+1]]
	objCands []int32   // C = 1 fast strip of objHits (candidate ids only)
	objOffs  []int32   // len = numObjects+1

	// Weighted damage (nil = unit weights). Immutable between
	// SetWeights calls, shared by Clone.
	w []int64 // per-object weight; Add/Marginal return Σ w over crossings

	// Move-delta state (see ApplyMove). moveKeys are the caller's
	// tie-break identities restoring the canonical candidate order after
	// a load change; invStale records that the inverted index no longer
	// matches the patched CSR runs and must be rebuilt before the next
	// residual-tracked search.
	moveKeys []int32
	onSwap   func(i, j int)
	invStale bool

	// Mutable search state (fresh per Clone).
	cnt       []int32 // failed replicas per object
	track     bool    // residual upkeep enabled (see EnableResidual)
	prepared  bool    // residual baselines + inverted index built (lazy)
	resid     []int64 // per-candidate load restricted to live objects
	residAll  int64   // Σ resid over all candidates
	deadSpent int64   // Σ cnt over dead objects (liveSpent = chosen load − deadSpent)

	cursor     []int32 // Reinit scratch for the inverted-index fill
	top        []int64 // TopResidual scratch (rem largest residuals)
	hitScratch []Hit   // ApplyMove scratch for run rotation
	objScratch []int32 // ApplyMove scratch for the C = 1 strip rotation
}

var (
	_ Instance        = (*HitInstance)(nil)
	_ ResidualBounder = (*HitInstance)(nil)
	_ Deduper         = (*HitInstance)(nil)
)

// NewHitInstance returns an empty instance over numObjects objects with
// fatality threshold s; Reinit populates (and re-populates) its
// candidate set. The two-step construction lets the constrained engines
// stamp one instance per worker and reuse its allocations across every
// C(D, d) domain subset.
func NewHitInstance(s, numObjects int) *HitInstance {
	return &HitInstance{
		s:       int32(s),
		cnt:     make([]int32, numObjects),
		objOffs: make([]int32, numObjects+1),
		cursor:  make([]int32, numObjects),
	}
}

// Reinit reconfigures the instance in place for a new search — k picks
// among the given candidates — reusing prior allocations. hitLists[i]
// must be sorted by ascending object id with at most one entry per
// object; loads must be non-increasing with loads[i] = Σ C over
// hitLists[i] (zero-load padding candidates carry empty lists). The
// failure counters are expected clean (drivers leave them balanced;
// call Reset after Greedy) and are not touched, so a caller sharing one
// instance across sub-searches keeps one object-counter array.
func (in *HitInstance) Reinit(k int, hitLists [][]Hit, loads []int64) {
	in.count = k

	in.offs = append(in.offs[:0], 0)
	in.hits = in.hits[:0]
	for _, hl := range hitLists {
		in.hits = append(in.hits, hl...)
		in.offs = append(in.offs, int32(len(in.hits)))
	}
	in.loads = append(in.loads[:0], loads...)

	// The C = 1 fast strip: the node-level adapters' case, where the
	// 4-byte object stream halves the memory traffic of the hot
	// Add/Remove/Marginal loops.
	in.objs = in.objs[:0]
	for _, h := range in.hits {
		if h.C != 1 {
			in.objs = nil
			break
		}
		in.objs = append(in.objs, h.Obj)
	}

	// Residual baselines and the inverted index are built lazily by
	// EnableResidual: Greedy seeding, Exhaustive enumeration and
	// static-bound searches never pay for them.
	in.deadSpent = 0
	in.track = false
	in.prepared = false
	in.invStale = false
	in.w = nil
	// A new candidate set invalidates the caller's position identities;
	// re-enable moves (EnableMoves) after every Reinit.
	in.moveKeys = nil
	in.onSwap = nil
}

// SetWeights switches the instance to weighted damage accounting:
// object obj is worth w[obj] (>= 0), Add/Remove/Marginal report the
// weight of the objects crossing the S threshold instead of their
// count, and the residual ledger runs in weight units. Call it after
// Reinit (which reverts to unit weights) and before the first search on
// the new candidate set; the loads passed to Reinit must then be the
// WEIGHTED candidate loads Σ C·w[obj] over each hit list — the
// replica-counting bound divides that weighted spend by S, so plain
// loads would prune unsoundly. A nil w reverts to unit weights.
func (in *HitInstance) SetWeights(w []int64) {
	if w != nil && len(w) != len(in.cnt) {
		panic(fmt.Sprintf("search: %d object weights for %d objects", len(w), len(in.cnt)))
	}
	if in.prepared {
		panic("search: SetWeights after the residual baselines were built; call it right after Reinit")
	}
	in.w = w
}

// prepare builds the residual machinery: per-candidate full loads (the
// clean-state residuals) and the inverted object → candidate index the
// threshold-crossing walks use.
func (in *HitInstance) prepare() {
	m := in.Len()
	in.full = in.full[:0]
	in.fullSum = 0
	for i := 0; i < m; i++ {
		var sum int64
		for _, h := range in.run(i) {
			c := int64(h.C)
			if in.w != nil {
				c *= in.w[h.Obj]
			}
			sum += c
		}
		in.full = append(in.full, sum)
		in.fullSum += sum
	}
	in.resid = append(in.resid[:0], in.full...)
	in.residAll = in.fullSum
	in.deadSpent = 0
	in.buildInverted()
	in.prepared = true
	in.invStale = false
}

// buildInverted (re)derives the object → candidate index from the
// current CSR runs: count, prefix-sum, fill. Called by prepare and by
// EnableResidual when ApplyMove left the index stale.
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
	if len(in.cursor) < len(in.objOffs)-1 {
		in.cursor = make([]int32, len(in.objOffs)-1)
	}
	copy(in.cursor, in.objOffs[:len(in.cursor)])
	for i := 0; i < m; i++ {
		for _, h := range in.run(i) {
			in.objHits[in.cursor[h.Obj]] = candHit{Cand: int32(i), C: h.C}
			in.cursor[h.Obj]++
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

func (in *HitInstance) Len() int         { return len(in.offs) - 1 }
func (in *HitInstance) K() int           { return in.count }
func (in *HitInstance) S() int           { return int(in.s) }
func (in *HitInstance) Load(i int) int64 { return in.loads[i] }

// Add fails candidate i, returning the number of newly failed objects.
// Objects crossing the S threshold shed their replicas from every
// holder's residual via the inverted index (Remove walks the exact
// inverse). The
// residual upkeep touches only hits on dead objects and threshold
// crossings, so the common live-hit path costs one predictable branch.
func (in *HitInstance) Add(i int) int {
	if in.w != nil {
		return in.addW(i)
	}
	newly := 0
	s := in.s
	if !in.track {
		// Upkeep off (greedy/exhaustive/static ablation): the bare
		// threshold count, the pre-residual hot loop.
		if in.objs != nil {
			for _, obj := range in.objs[in.offs[i]:in.offs[i+1]] {
				in.cnt[obj]++
				if in.cnt[obj] == s {
					newly++
				}
			}
		} else {
			for _, h := range in.run(i) {
				old := in.cnt[h.Obj]
				nw := old + h.C
				in.cnt[h.Obj] = nw
				if old < s && nw >= s {
					newly++
				}
			}
		}
		return newly
	}
	var dDead int64
	if in.objs != nil {
		cross := s - 1
		for _, obj := range in.objs[in.offs[i]:in.offs[i+1]] {
			old := in.cnt[obj]
			in.cnt[obj] = old + 1
			if old >= cross {
				if old == cross {
					newly++
					dDead += int64(old) + 1
					in.objectDied(obj)
				} else {
					dDead++
				}
			}
		}
	} else {
		for _, h := range in.run(i) {
			old := in.cnt[h.Obj]
			nw := old + h.C
			in.cnt[h.Obj] = nw
			if nw >= s {
				if old < s {
					newly++
					dDead += int64(nw)
					in.objectDied(h.Obj)
				} else {
					dDead += int64(h.C)
				}
			}
		}
	}
	in.deadSpent += dDead
	return newly
}

// addW is Add under SetWeights: the return value is the total weight of
// the newly dead objects, and the dead-spent ledger counts each failed
// replica of a dead object as C·w.
func (in *HitInstance) addW(i int) int {
	s := in.s
	newly := 0
	if !in.track {
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
	var dDead int64
	for _, h := range in.run(i) {
		old := in.cnt[h.Obj]
		nw := old + h.C
		in.cnt[h.Obj] = nw
		if nw >= s {
			w := in.w[h.Obj]
			if old < s {
				newly += int(w)
				dDead += int64(nw) * w
				in.objectDiedW(h.Obj)
			} else {
				dDead += int64(h.C) * w
			}
		}
	}
	in.deadSpent += dDead
	return newly
}

// Remove reverts Add(i).
func (in *HitInstance) Remove(i int) {
	if in.w != nil {
		in.removeW(i)
		return
	}
	s := in.s
	if !in.track {
		if in.objs != nil {
			for _, obj := range in.objs[in.offs[i]:in.offs[i+1]] {
				in.cnt[obj]--
			}
		} else {
			for _, h := range in.run(i) {
				in.cnt[h.Obj] -= h.C
			}
		}
		return
	}
	var dDead int64
	if in.objs != nil {
		for _, obj := range in.objs[in.offs[i]:in.offs[i+1]] {
			old := in.cnt[obj]
			in.cnt[obj] = old - 1
			if old >= s {
				if old == s {
					in.objectRevived(obj)
					dDead -= int64(old)
				} else {
					dDead--
				}
			}
		}
	} else {
		for _, h := range in.run(i) {
			old := in.cnt[h.Obj]
			nw := old - h.C
			in.cnt[h.Obj] = nw
			if old >= s {
				if nw < s {
					in.objectRevived(h.Obj)
					dDead -= int64(old)
				} else {
					dDead -= int64(h.C)
				}
			}
		}
	}
	in.deadSpent += dDead
}

// removeW reverts addW(i).
func (in *HitInstance) removeW(i int) {
	s := in.s
	if !in.track {
		for _, h := range in.run(i) {
			in.cnt[h.Obj] -= h.C
		}
		return
	}
	var dDead int64
	for _, h := range in.run(i) {
		old := in.cnt[h.Obj]
		nw := old - h.C
		in.cnt[h.Obj] = nw
		if old >= s {
			w := in.w[h.Obj]
			if nw < s {
				in.objectRevivedW(h.Obj)
				dDead -= int64(old) * w
			} else {
				dDead -= int64(h.C) * w
			}
		}
	}
	in.deadSpent += dDead
}

// objectDied discounts every candidate's replicas of the newly dead
// object: future hits on it are wasted, so they leave the residuals.
func (in *HitInstance) objectDied(obj int32) {
	if in.objCands != nil {
		for _, cand := range in.objCands[in.objOffs[obj]:in.objOffs[obj+1]] {
			in.resid[cand]--
		}
		in.residAll -= int64(in.objOffs[obj+1] - in.objOffs[obj])
		return
	}
	var c int64
	for _, ch := range in.objHits[in.objOffs[obj]:in.objOffs[obj+1]] {
		in.resid[ch.Cand] -= int64(ch.C)
		c += int64(ch.C)
	}
	in.residAll -= c
}

// objectRevived reverts objectDied.
func (in *HitInstance) objectRevived(obj int32) {
	if in.objCands != nil {
		for _, cand := range in.objCands[in.objOffs[obj]:in.objOffs[obj+1]] {
			in.resid[cand]++
		}
		in.residAll += int64(in.objOffs[obj+1] - in.objOffs[obj])
		return
	}
	var c int64
	for _, ch := range in.objHits[in.objOffs[obj]:in.objOffs[obj+1]] {
		in.resid[ch.Cand] += int64(ch.C)
		c += int64(ch.C)
	}
	in.residAll += c
}

// objectDiedW is objectDied in weight units: every hit on the dead
// object leaves the residuals at its weighted size C·w.
func (in *HitInstance) objectDiedW(obj int32) {
	w := in.w[obj]
	if in.objCands != nil {
		for _, cand := range in.objCands[in.objOffs[obj]:in.objOffs[obj+1]] {
			in.resid[cand] -= w
		}
		in.residAll -= w * int64(in.objOffs[obj+1]-in.objOffs[obj])
		return
	}
	var c int64
	for _, ch := range in.objHits[in.objOffs[obj]:in.objOffs[obj+1]] {
		d := int64(ch.C) * w
		in.resid[ch.Cand] -= d
		c += d
	}
	in.residAll -= c
}

// objectRevivedW reverts objectDiedW.
func (in *HitInstance) objectRevivedW(obj int32) {
	w := in.w[obj]
	if in.objCands != nil {
		for _, cand := range in.objCands[in.objOffs[obj]:in.objOffs[obj+1]] {
			in.resid[cand] += w
		}
		in.residAll += w * int64(in.objOffs[obj+1]-in.objOffs[obj])
		return
	}
	var c int64
	for _, ch := range in.objHits[in.objOffs[obj]:in.objOffs[obj+1]] {
		d := int64(ch.C) * w
		in.resid[ch.Cand] += d
		c += d
	}
	in.residAll += c
}

// Marginal returns how many objects Add(i) would newly fail, without
// mutating state (the objects' total weight under SetWeights).
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

// marginalW is Marginal under SetWeights.
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

// Reset restores the clean state: all objects live, no candidate chosen.
func (in *HitInstance) Reset() {
	for i := range in.cnt {
		in.cnt[i] = 0
	}
	if in.prepared {
		copy(in.resid, in.full)
		in.residAll = in.fullSum
		in.deadSpent = 0
	}
}

// EnableResidual switches the incremental residual upkeep on. The
// instance must be clean (Reset): the baselines Reinit/Reset install
// are exactly the clean-state invariants, so no recomputation is
// needed. Reinit switches it back off, and ApplyMove suspends it —
// the per-candidate full loads are patched in place by the move, but
// the inverted index is only re-derived here, once, when the next
// residual-pruned search actually starts.
func (in *HitInstance) EnableResidual() {
	if !in.prepared {
		in.prepare()
	} else if in.invStale {
		in.buildInverted()
		copy(in.resid, in.full)
		in.residAll = in.fullSum
		in.deadSpent = 0
		in.invStale = false
	}
	in.track = true
}

// ResidualStats returns the residual-bound invariants: failed replicas
// of dead objects (the caller derives liveSpent as the chosen static
// load minus this), the candidates' load restricted to live objects,
// and the total dead load discounted so far.
func (in *HitInstance) ResidualStats() (deadSpent, residual, discount int64) {
	return in.deadSpent, in.residAll, in.fullSum - in.residAll
}

// TopResidual returns the sum of the rem largest residual loads among
// candidates start..Len()-1. The DFS chooses candidates in ascending
// index order, so every candidate >= start is unchosen and eligible.
func (in *HitInstance) TopResidual(start, rem int) int64 {
	if cap(in.top) < rem {
		in.top = make([]int64, rem)
	}
	top := in.top[:rem] // ascending; top[0] is the smallest kept
	copy(top, in.resid[start:start+rem])
	for i := 1; i < rem; i++ {
		for j := i; j > 0 && top[j] < top[j-1]; j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	var sum int64
	for _, v := range top {
		sum += v
	}
	for _, v := range in.resid[start+rem:] {
		if v > top[0] {
			sum += v - top[0]
			j := 1
			for j < rem && top[j] < v {
				top[j-1] = top[j]
				j++
			}
			top[j-1] = v
		}
	}
	return sum
}

// DupOfPrev reports whether candidate i's hit run equals candidate
// i-1's. Computed on demand: the drivers ask once per candidate per
// search, so a precomputed table would cost the same comparisons
// whether or not a pruned search ever runs.
func (in *HitInstance) DupOfPrev(i int) bool { return runsEqual(in.run(i), in.run(i-1)) }

// CloneForMoves returns an independent editor-and-searcher: unlike
// Clone, the CSR backing arrays (hits, offsets, loads, the C = 1 fast
// strip and the move identities) are deep-copied, so ApplyMove on the
// clone never touches the receiver and vice versa — the primitive a
// probing session forks per worker. Only the per-object weight vector
// stays shared (immutable between SetWeights calls). The residual
// machinery is left unbuilt: the clone re-prepares lazily on its own
// backing at its first EnableResidual, which costs nothing extra on a
// probing workload — every ApplyMove marks the inverted index stale, so
// a moved instance rebuilds it per search anyway. The onSwap mirror is
// cleared; re-bind the caller's id ↔ position maps with EnableMoves.
// The receiver must be clean (Reset), as the clone starts clean.
func (in *HitInstance) CloneForMoves() *HitInstance {
	cp := *in
	cp.hits = append([]Hit(nil), in.hits...)
	if in.objs != nil {
		cp.objs = append([]int32(nil), in.objs...)
	}
	cp.offs = append([]int32(nil), in.offs...)
	cp.loads = append([]int64(nil), in.loads...)
	if in.moveKeys != nil {
		cp.moveKeys = append([]int32(nil), in.moveKeys...)
	}
	cp.onSwap = nil
	cp.cnt = make([]int32, len(in.cnt))
	cp.full, cp.resid, cp.objHits, cp.objCands = nil, nil, nil, nil
	cp.objOffs = make([]int32, len(in.objOffs))
	cp.fullSum = 0
	cp.prepared, cp.invStale, cp.track = false, false, false
	cp.deadSpent = 0
	cp.cursor, cp.top, cp.hitScratch, cp.objScratch = nil, nil, nil, nil
	cp.assertInvariants("CloneForMoves")
	return &cp
}

// Clone returns an independent searcher over the same immutable
// preprocessing: the CSR arrays, loads, duplicate flags and inverted
// index are shared (read-only during search), only the mutable failure
// and residual state is fresh — the cheap way to stamp out per-worker
// instances for BranchAndBoundParallelWith. The receiver must be clean
// (Reset), as the clone starts clean.
func (in *HitInstance) Clone() *HitInstance {
	cp := *in
	cp.cnt = make([]int32, len(in.cnt))
	if in.prepared && !in.invStale {
		// Share the immutable residual preprocessing; fresh state only.
		cp.resid = append([]int64(nil), in.full...)
		cp.residAll = in.fullSum
		cp.deadSpent = 0
	} else {
		// Unshare the lazily-built arrays: concurrent clones must not
		// race on the receiver's backing capacity when they prepare. A
		// stale inverted index (ApplyMove since the last residual run)
		// is treated the same way — the clone re-prepares from the
		// patched CSR runs on its own backing.
		cp.full, cp.resid, cp.objHits, cp.objCands = nil, nil, nil, nil
		cp.objOffs = make([]int32, len(in.objOffs))
		cp.prepared = false
		cp.invStale = false
	}
	cp.track = false // each driver re-enables on its own copy
	cp.cursor = nil  // prepare-only scratch, grown lazily
	cp.top = nil     // TopResidual scratch, grown lazily per instance
	// Clones are searchers, not editors: move identities and scratch
	// stay with the receiver (see the ApplyMove contract).
	cp.moveKeys = nil
	cp.onSwap = nil
	cp.hitScratch = nil
	cp.objScratch = nil
	return &cp
}
