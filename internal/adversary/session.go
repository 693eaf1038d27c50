package adversary

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/placement"
	"repro/internal/search"
	"repro/internal/topology"
)

// Session is the incremental face of the adversary: one live
// search.HitInstance per engine configuration, kept in sync with a
// placement across one-replica moves, so chains of nearly identical
// evaluations (spread candidate scoring, reconciler re-plans) skip the
// per-call instance rebuild the one-shot engines pay.
//
// Three accelerations stack, every one provably exact:
//
//   - CSR move deltas: Move patches the live instance in place
//     (HitInstance.ApplyMove) instead of re-aggregating hits — and a
//     move that stays inside one attack-level domain does not change
//     the domain instance at all, so the previous result is returned
//     verbatim.
//   - Warm-started search: the previous witness is re-validated on the
//     patched instance (search.Revalidate) and seeds branch-and-bound
//     whenever it beats the greedy incumbent, so the first prune is
//     already tight; and since one replica of weight w shifts the
//     optimum by at most ±w, a re-validated witness that gains the
//     full +w is provably optimal and skips the search entirely.
//   - Damage memoization: exact results are cached by canonical
//     placement signature (placement.Signature, folded with the weight
//     vector), so re-evaluating a placement the session has already
//     seen — the revert half of a probe-and-revert re-plan — costs a
//     hash lookup. Budgeted (inexact) results are never memoized: a
//     later call with budget to spare may improve them.
//
// A Session is safe for concurrent use; evaluations serialize on an
// internal lock. Parallelism lives in two places: inside one evaluation
// (SearchOpts.Workers) and across probe evaluations (ProbeMoves fans a
// batch of probes over Fork children that share the session's damage
// memo). The memo is capped (SearchOpts.MemoCap) with FIFO eviction, so
// an unbounded reconcile run cannot grow it without limit.
type Session struct {
	mu   sync.Mutex
	s, k int
	topo *topology.Topology // collapsed attack-level view; nil = node-level
	opts SearchOpts

	pl   *placement.Placement // the session's own copy, in sync with inst
	inst *search.HitInstance
	ids  []int // candidate position → node/domain id
	pos  []int // node/domain id → candidate position

	last  *lastEval    // reused across evaluations (steady state: no alloc)
	memo  *sessionMemo // sharded signature→result memo, shared with forks
	stats SessionStats

	sigBuf []int // SignatureScratch reuse

	// Rebuild scratch.
	lists [][]search.Hit
	loads []int64
	keys  []int32
	byID  [][]search.Hit
}

// lastEval remembers the previous evaluation of the live instance: the
// warm-start seed and the baseline of the ±w move bracket.
type lastEval struct {
	res SessionResult
	ids []int // witness identities (node or domain ids), ascending
}

// SessionResult is one evaluation's outcome, a DomainResult-shaped
// answer plus the incremental provenance flags.
type SessionResult struct {
	Failed  int   // objects (or weight, under ObjWeights) failed by the best attack found
	Domains []int // attacked domains at the session's level (nil for node-level sessions)
	Nodes   []int // the attacking node set, sorted
	Exact   bool  // true if Failed is provably the maximum
	Visited int64 // search states visited by THIS evaluation (0 on memo/skip paths)
	Warm    bool  // branch-and-bound was seeded by the previous witness
	Memo    bool  // answered from the damage memo without searching
}

// SessionStats counts a session's incremental activity — the numbers
// the CLI surfaces under -stats.
type SessionStats struct {
	Evals        int64 // evaluations answered (all paths)
	MemoHits     int64 // answered by the placement-signature memo
	WarmSeeds    int64 // searches seeded by the previous witness (it beat greedy)
	BracketSkips int64 // searches skipped: the re-validated witness hit the ±w move bracket
	NoopMoves    int64 // moves inside one domain: instance unchanged, previous result returned
	Moves        int64 // one-replica CSR deltas applied to the live instance
	Rebuilds     int64 // full instance (re)builds
	Visited      int64 // total search states across all evaluations
	Forks        int64 // children forked for parallel probe batches
	BatchProbes  int64 // probes answered through ProbeMoves
	MemoEvicted  int64 // memo entries evicted by the capacity cap (shared across forks)
}

// add folds a fork's counters into the parent's after a probe batch.
// MemoEvicted is deliberately skipped: forks share the parent's memo,
// whose global eviction counter Stats reads directly.
func (st *SessionStats) add(o SessionStats) {
	st.Evals += o.Evals
	st.MemoHits += o.MemoHits
	st.WarmSeeds += o.WarmSeeds
	st.BracketSkips += o.BracketSkips
	st.NoopMoves += o.NoopMoves
	st.Moves += o.Moves
	st.Rebuilds += o.Rebuilds
	st.Visited += o.Visited
	st.Forks += o.Forks
	st.BatchProbes += o.BatchProbes
}

// NewNodeSession opens an incremental session for the node-level
// adversary (the WorstCase family): k node failures, fatality
// threshold s, searched per opts. The session copies pl and owns its
// copy; drive it with Move/Evaluate.
func NewNodeSession(pl *placement.Placement, s, k int, opts SearchOpts) (*Session, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if s < 1 || s > pl.R {
		return nil, fmt.Errorf("adversary: s = %d must satisfy 1 <= s <= r = %d", s, pl.R)
	}
	if k < 1 || k >= pl.N {
		return nil, fmt.Errorf("adversary: k = %d must satisfy 1 <= k < n = %d", k, pl.N)
	}
	if err := checkObjWeights(opts.ObjWeights, pl.B()); err != nil {
		return nil, err
	}
	se := &Session{s: s, k: k, opts: opts, pl: pl.Clone(),
		inst: search.NewHitInstance(s, pl.B()),
		memo: newSessionMemo(opts.resolveMemoCap())}
	se.rebuild()
	return se, nil
}

// NewDomainSession opens an incremental session for the whole-domain
// adversary (DomainWorstCaseAtWith) at the given topology level:
// d whole-domain failures per evaluation.
func NewDomainSession(pl *placement.Placement, topo *topology.Topology, level, s, d int, opts SearchOpts) (*Session, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	flat, err := collapseTo(pl, topo, level)
	if err != nil {
		return nil, err
	}
	if s < 1 || s > pl.R {
		return nil, fmt.Errorf("adversary: s = %d must satisfy 1 <= s <= r = %d", s, pl.R)
	}
	if d < 1 || d > flat.NumDomains() {
		return nil, fmt.Errorf("adversary: d = %d must satisfy 1 <= d <= domains = %d", d, flat.NumDomains())
	}
	if err := checkObjWeights(opts.ObjWeights, pl.B()); err != nil {
		return nil, err
	}
	se := &Session{s: s, k: d, topo: flat, opts: opts, pl: pl.Clone(),
		inst: search.NewHitInstance(s, pl.B()),
		memo: newSessionMemo(opts.resolveMemoCap())}
	se.rebuild()
	return se, nil
}

// Placement returns a copy of the placement the session currently
// evaluates.
func (se *Session) Placement() *placement.Placement {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.pl.Clone()
}

// Stats returns a snapshot of the session's incremental counters.
// After a ProbeMoves batch the forks' counters are already folded in;
// MemoEvicted reads the shared memo's global eviction count.
func (se *Session) Stats() SessionStats {
	se.mu.Lock()
	defer se.mu.Unlock()
	st := se.stats
	st.MemoEvicted = se.memo.evicted.Load()
	return st
}

// Move transfers one replica of obj between nodes and returns the
// worst-case damage of the resulting placement — the incremental fast
// path: the live instance is patched in place, the previous witness
// warms the search, and the ±w bracket or the memo may answer without
// searching at all.
//
// An out-of-range object or node index returns a
// *placement.RangeError (match with errors.As) and leaves the session
// untouched: the range check runs before any CSR patch, so a bad index
// can never reach search.HitInstance.ApplyMove, which panics on one.
func (se *Session) Move(obj, from, to int) (SessionResult, error) {
	se.mu.Lock()
	defer se.mu.Unlock()
	if err := se.pl.MoveReplica(obj, from, to); err != nil {
		return SessionResult{}, err
	}
	return se.copyOut(se.applyMove(obj, from, to)), nil
}

// MoveInto is Move writing the result into dst, reusing dst's Nodes
// and Domains capacity — the allocation-free variant for hot probe
// loops (a memo- or bracket-answered move then allocates nothing at
// all). dst is untouched on error.
func (se *Session) MoveInto(dst *SessionResult, obj, from, to int) error {
	se.mu.Lock()
	defer se.mu.Unlock()
	if err := se.pl.MoveReplica(obj, from, to); err != nil {
		return err
	}
	copyInto(dst, se.applyMove(obj, from, to))
	return nil
}

// Evaluate returns the worst-case damage of pl, re-targeting the
// session at it. A pl differing from the session's current placement
// by exactly one replica move rides the incremental path; anything
// else (including a nil pl: evaluate the current placement) falls back
// to one full rebuild. The placement must keep the session's shape
// (same node count, replication factor and object count).
func (se *Session) Evaluate(pl *placement.Placement) (SessionResult, error) {
	se.mu.Lock()
	defer se.mu.Unlock()
	if pl == nil {
		return se.copyOut(se.eval(false, 0)), nil
	}
	if pl.N != se.pl.N || pl.R != se.pl.R || pl.B() != se.pl.B() {
		return SessionResult{}, fmt.Errorf("adversary: session shaped (n=%d r=%d b=%d) cannot evaluate (n=%d r=%d b=%d)",
			se.pl.N, se.pl.R, se.pl.B(), pl.N, pl.R, pl.B())
	}
	// Diff against the held placement: 0 changed objects → evaluate as
	// is; 1 changed object that is a single replica move → patch; more
	// → rebuild.
	changed := -1
	for obj := range pl.Objects {
		if pl.Objects[obj].Equal(se.pl.Objects[obj]) {
			continue
		}
		if changed >= 0 { // second changed object: rebuild
			changed = -2
			break
		}
		changed = obj
	}
	switch {
	case changed == -1:
		return se.copyOut(se.eval(false, 0)), nil
	case changed >= 0:
		if from, to, ok := singleMove(se.pl.Objects[changed].Members(nil), pl.Objects[changed].Members(nil)); ok {
			if err := se.pl.MoveReplica(changed, from, to); err != nil {
				return SessionResult{}, err
			}
			return se.copyOut(se.applyMove(changed, from, to)), nil
		}
	}
	if err := pl.Validate(); err != nil {
		return SessionResult{}, err
	}
	se.pl = pl.Clone()
	se.rebuild()
	return se.copyOut(se.eval(false, 0)), nil
}

// singleMove reports whether two sorted replica sets differ by exactly
// one element, returning the (removed, added) pair.
func singleMove(old, new []int) (from, to int, ok bool) {
	from, to = -1, -1
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		switch {
		case old[i] == new[j]:
			i++
			j++
		case old[i] < new[j]:
			if from >= 0 {
				return 0, 0, false
			}
			from = old[i]
			i++
		default:
			if to >= 0 {
				return 0, 0, false
			}
			to = new[j]
			j++
		}
	}
	if i < len(old) {
		if from >= 0 || i+1 < len(old) {
			return 0, 0, false
		}
		from = old[i]
	}
	if j < len(new) {
		if to >= 0 || j+1 < len(new) {
			return 0, 0, false
		}
		to = new[j]
	}
	return from, to, from >= 0 && to >= 0
}

// applyMove patches the live instance for a replica of obj moving
// between the given NODES (the placement is already updated) and
// evaluates the result. The returned result's slices are internal
// (retained by the memo and warm-start baseline); public entry points
// copy before handing them out.
func (se *Session) applyMove(obj, from, to int) SessionResult {
	cf, ct := from, to
	if se.topo != nil {
		cf, ct = se.topo.DomainOf(from), se.topo.DomainOf(to)
		if cf == ct {
			// The move never crosses a domain boundary: the domain
			// instance — hence the worst case — is unchanged.
			se.stats.NoopMoves++
			if se.last != nil {
				se.stats.Evals++
				res := se.last.res
				res.Visited = 0
				res.Memo = true
				if res.Exact {
					se.memo.put(se.sig(), res)
				}
				return res
			}
			return se.eval(false, 0)
		}
	}
	se.stats.Moves++
	se.inst.ApplyMove(obj, se.pos[cf], se.pos[ct])
	// One replica of weight w moved, so the optimum shifts by at most
	// ±w: if the previous result was exact, anything achieving
	// prevFailed + w is provably the new optimum (the bracket skip).
	if se.last != nil && se.last.res.Exact {
		wd := int64(1)
		if se.opts.ObjWeights != nil {
			wd = se.opts.ObjWeights[obj]
		}
		return se.eval(true, se.last.res.Failed+int(wd))
	}
	return se.eval(false, 0)
}

// sig is the memo key of the session's current placement, hashed
// through the reused scratch buffer (no allocation in steady state).
func (se *Session) sig() placement.Sig {
	var s placement.Sig
	s, se.sigBuf = placement.SignatureScratch(se.pl, se.sigBuf)
	return placement.WeightSignature(s, se.opts.ObjWeights)
}

// eval answers one evaluation of the current live instance: memo →
// greedy + re-validated witness → bracket skip or (warm-started)
// branch-and-bound. ceiling, when bracketed, is a proven upper bound
// on the optimum. The returned result's slices are internal; public
// entry points copy.
func (se *Session) eval(bracketed bool, ceiling int) SessionResult {
	se.stats.Evals++
	sig := se.sig()
	if cached, ok := se.memo.get(sig); ok {
		se.stats.MemoHits++
		cached.Visited = 0
		cached.Memo = true
		se.remember(cached)
		return cached
	}

	seed := search.Greedy(se.inst)
	se.inst.Reset()
	warm := false
	if se.last != nil {
		sel := make([]int, len(se.last.ids))
		for i, id := range se.last.ids {
			sel[i] = se.pos[id]
		}
		sort.Ints(sel)
		if rv := search.Revalidate(se.inst, sel); rv > seed.Failed {
			seed = search.Result{Failed: rv, Sel: sel}
			warm = true
			se.stats.WarmSeeds++
		}
	}

	var res search.Result
	if bracketed && seed.Failed >= ceiling {
		// The seed meets the ±w bracket: nothing can beat it.
		se.stats.BracketSkips++
		res = search.Result{Failed: seed.Failed, Sel: seed.Sel, Exact: true}
	} else {
		bud := search.NewBudget(se.opts.Budget)
		if workers := se.opts.resolveWorkers(); workers > 1 {
			// The work-stealing driver unwinds the probe before its
			// workers exit, so se.inst stays clean for the next eval.
			res, _ = search.BranchAndBoundParallelWith(se.inst, func() (search.Instance, error) {
				return se.inst.Clone(), nil
			}, seed, bud, workers, se.opts.Bound)
		} else {
			res = search.BranchAndBoundWith(se.inst, seed, bud, se.opts.Bound)
		}
		se.stats.Visited += res.Visited
	}

	out := se.translate(res)
	out.Warm = warm
	se.remember(out)
	if out.Exact {
		se.memo.put(sig, out)
	}
	return out
}

// translate maps a core result from candidate positions to identities.
func (se *Session) translate(res search.Result) SessionResult {
	ids := make([]int, len(res.Sel))
	for i, ci := range res.Sel {
		ids[i] = se.ids[ci]
	}
	sort.Ints(ids)
	out := SessionResult{Failed: res.Failed, Exact: res.Exact, Visited: res.Visited}
	if se.topo != nil {
		out.Domains = ids
		out.Nodes = se.topo.FailedSet(ids).Members(nil)
	} else {
		out.Nodes = ids
	}
	return out
}

// remember stores the evaluation as the warm-start baseline for the
// next one, reusing the lastEval box (result slices are replaced
// wholesale and never mutated in place, so aliasing them is safe).
func (se *Session) remember(res SessionResult) {
	ids := res.Nodes
	if se.topo != nil {
		ids = res.Domains
	}
	if se.last == nil {
		se.last = &lastEval{}
	}
	se.last.res = res
	se.last.ids = ids
}

// copyOut hands the caller its own slices: results are retained in the
// memo and the warm-start baseline, which a caller must not mutate.
func (se *Session) copyOut(res SessionResult) SessionResult {
	res.Domains = append([]int(nil), res.Domains...)
	res.Nodes = append([]int(nil), res.Nodes...)
	return res
}

// copyInto is copyOut into caller-owned storage: dst's slice capacity
// is reused, so a steady-state probe loop allocates nothing.
func copyInto(dst *SessionResult, res SessionResult) {
	doms, nodes := dst.Domains, dst.Nodes
	*dst = res
	dst.Domains = append(doms[:0], res.Domains...)
	dst.Nodes = append(nodes[:0], res.Nodes...)
}

// Fork clones the session into an independent child sharing the
// parent's damage memo: the live instance is deep-copied
// (search.CloneForMoves), the id ↔ position maps and warm-start
// baseline come along, and the child re-binds its own onSwap mirror —
// so moves on the child never corrupt the parent, while every exact
// result either side publishes is a memo hit for both. Children are
// what ProbeMoves fans batches over; a caller driving a fork directly
// gets the full Session API on it.
func (se *Session) Fork() *Session {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.forkLocked()
}

func (se *Session) forkLocked() *Session {
	se.stats.Forks++
	child := &Session{
		s: se.s, k: se.k, topo: se.topo, opts: se.opts,
		pl:   se.pl.Clone(),
		inst: se.inst.CloneForMoves(),
		ids:  append([]int(nil), se.ids...),
		pos:  append([]int(nil), se.pos...),
		memo: se.memo,
	}
	if se.last != nil {
		l := *se.last
		child.last = &l
	}
	child.keys = make([]int32, len(child.ids))
	for i, id := range child.ids {
		child.keys[i] = int32(id)
	}
	child.inst.EnableMoves(child.keys, func(i, j int) {
		a, b := child.ids[i], child.ids[j]
		child.ids[i], child.ids[j] = b, a
		child.pos[a], child.pos[b] = j, i
	})
	return child
}

// probe scores one apply→evaluate→revert candidate without disturbing
// the warm-start baseline: the instance is patched, evaluated exactly
// as Session.Move would, then patched straight back (no revert
// evaluation — the canonical re-sort makes the round trip the
// identity) and the pre-probe baseline restored, so every probe in a
// chain is the same pure function of (base state, move). A move the
// placement rejects (no replica at From, or To already holds one)
// reports Failed = -1. Callers hold the session private (the lock, or
// a goroutine-private fork).
func (se *Session) probe(m Move) SessionResult {
	if err := se.pl.MoveReplica(m.Obj, m.From, m.To); err != nil {
		return SessionResult{Failed: -1}
	}
	var saved lastEval
	savedOK := se.last != nil
	if savedOK {
		saved = *se.last // the box is reused; save by value
	}
	res := se.copyOut(se.applyMove(m.Obj, m.From, m.To))
	if err := se.pl.MoveReplica(m.Obj, m.To, m.From); err != nil {
		panic(fmt.Sprintf("adversary: probe revert failed: %v", err))
	}
	cf, ct := m.From, m.To
	if se.topo != nil {
		cf, ct = se.topo.DomainOf(m.From), se.topo.DomainOf(m.To)
	}
	if cf != ct {
		se.stats.Moves++
		se.inst.ApplyMove(m.Obj, se.pos[ct], se.pos[cf])
	}
	if savedOK {
		*se.last = saved
	} else {
		se.last = nil
	}
	return res
}

// ProbeMoves scores a batch of candidate moves — apply, evaluate,
// revert each — and returns their results in candidate order. workers
// > 1 fans the batch over that many Fork children sharing the
// session's memo; because every probe is evaluated from the same base
// state and warm baseline (see probe), the results — damage, witness,
// exactness, even the visited-state counts — are byte-identical at any
// worker count, as long as the memo cap is not reached (eviction order
// is publish order, which parallelism does not fix; results stay
// correct regardless, only memo hits vary). The forks' counters fold
// into the session's stats before the call returns. An invalid move
// reports Failed = -1 in its slot.
func (se *Session) ProbeMoves(moves []Move, workers int) []SessionResult {
	se.mu.Lock()
	defer se.mu.Unlock()
	out := make([]SessionResult, len(moves))
	if len(moves) == 0 {
		return out
	}
	se.stats.BatchProbes += int64(len(moves))
	if workers > len(moves) {
		workers = len(moves)
	}
	if workers <= 1 {
		for i, m := range moves {
			out[i] = se.probe(m)
		}
		return out
	}
	children := make([]*Session, workers)
	for wi := range children {
		children[wi] = se.forkLocked()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, ch := range children {
		wg.Add(1)
		go func(ch *Session) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(moves) {
					return
				}
				out[i] = ch.probe(moves[i])
			}
		}(ch)
	}
	wg.Wait()
	for _, ch := range children {
		se.stats.add(ch.stats)
	}
	return out
}

// rebuild (re)derives the live instance from the session's placement:
// every node (or attack-level domain) is a candidate — any move target
// must exist — ordered canonically by weighted load descending, ties
// by id ascending, exactly how the one-shot engines order theirs. The
// id ↔ position maps then track every ApplyMove re-sort through the
// EnableMoves onSwap mirror.
func (se *Session) rebuild() {
	se.stats.Rebuilds++
	w := se.opts.ObjWeights
	if se.topo != nil {
		se.byID, _ = placement.DomainHits(se.pl, se.topo)
	} else {
		se.byID = nodeHits(se.pl)
	}
	wloads := weightedLoads(se.byID, w)
	m := len(se.byID)
	if se.ids == nil {
		se.ids = make([]int, m)
		se.pos = make([]int, m)
		se.keys = make([]int32, m)
		se.lists = make([][]search.Hit, m)
		se.loads = make([]int64, m)
	}
	for i := range se.ids {
		se.ids[i] = i
	}
	sort.Slice(se.ids, func(a, b int) bool {
		if wloads[se.ids[a]] != wloads[se.ids[b]] {
			return wloads[se.ids[a]] > wloads[se.ids[b]]
		}
		return se.ids[a] < se.ids[b]
	})
	for i, id := range se.ids {
		se.pos[id] = i
		se.keys[i] = int32(id)
		se.lists[i] = se.byID[id]
		se.loads[i] = wloads[id]
	}
	se.inst.Reinit(se.k, se.lists, se.loads)
	se.inst.SetWeights(w)
	se.inst.EnableMoves(se.keys, func(i, j int) {
		a, b := se.ids[i], se.ids[j]
		se.ids[i], se.ids[j] = b, a
		se.pos[a], se.pos[b] = j, i
	})
	se.last = nil // witness positions and instance are fresh; memo survives
}
