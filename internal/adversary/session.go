package adversary

import (
	"fmt"
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
//     patched instance and seeds branch-and-bound whenever it beats the
//     greedy incumbent (search.WarmSeed), so the first prune is already
//     tight; and since one replica of weight w shifts the
//     optimum by at most ±w, a re-validated witness that gains the
//     full +w is provably optimal and skips the search entirely.
//   - Damage memoization: exact results are cached by placement key
//     (placement.Signature: an order-independent XOR of per-replica
//     terms with the weight vector folded in), which the session keeps
//     current itself — every move XORs two terms in O(1) (Sig.Move),
//     and only a rebuild rehashes the whole placement — so
//     re-evaluating a placement the session has already seen costs one
//     map lookup. Budgeted (inexact) results are never memoized: a
//     later call with budget to spare may improve them.
//
// A Session is safe for concurrent use; evaluations serialize on an
// internal lock. Each call runs one level of parallelism: a single
// evaluation searches with SearchOpts.Workers workers, while a
// ProbeMoves batch fanned over w > 1 forked children (sharing the
// session's damage memo, and pooled across batches) runs each child's
// searches at one worker, so the fan-out and the search never compete
// for the same cores. The memo is capped (defaultMemoCap entries) with
// FIFO eviction, so an unbounded reconcile run cannot grow it without
// limit.
type Session struct {
	mu   sync.Mutex
	s, k int
	topo *topology.Topology // collapsed attack-level view; nil = node-level
	opts SearchOpts

	pl   *placement.Placement // the session's own copy, in sync with inst
	inst *search.HitInstance  // every node/domain a unit, idle ones kept

	last  *lastEval     // reused across evaluations (steady state: no alloc)
	memo  *sessionMemo  // sharded key→result memo, shared with forks
	key   placement.Sig // memo key of pl under opts.ObjWeights, kept current by moveReplica
	stats SessionStats

	// ProbeMoves' forks, kept across batches, and the moves applied to
	// the session since the last batch, which the next one replays on
	// them (see ProbeMoves). rebuild drops both.
	pool    []*Session
	pending []Move
}

// maxPendingMoves caps the moves the session logs for its pooled probe
// forks between batches: past it, replaying the log would cost more
// than forking afresh, so the pool is dropped instead.
const maxPendingMoves = 64

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
	MemoHits     int64 // answered by the placement-key memo
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
	if err := checkNodeQuery(pl, s, k, opts.ObjWeights); err != nil {
		return nil, err
	}
	se := &Session{s: s, k: k, opts: opts, pl: pl.Clone(),
		inst: search.NewHitInstance(s, pl.B()),
		memo: newSessionMemo(defaultMemoCap)}
	se.rebuild()
	return se, nil
}

// NewDomainSession opens an incremental session for the whole-domain
// adversary (DomainWorstCaseAtWith) at the given topology level:
// d whole-domain failures per evaluation.
func NewDomainSession(pl *placement.Placement, topo *topology.Topology, level, s, d int, opts SearchOpts) (*Session, error) {
	flat, err := checkDomainQuery(pl, topo, level, s, d, opts.ObjWeights)
	if err != nil {
		return nil, err
	}
	se := &Session{s: s, k: d, topo: flat, opts: opts, pl: pl.Clone(),
		inst: search.NewHitInstance(s, pl.B()),
		memo: newSessionMemo(defaultMemoCap)}
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
	if err := se.commitMove(obj, from, to, "Move"); err != nil {
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
	if err := se.commitMove(obj, from, to, "MoveInto"); err != nil {
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
			if err := se.commitMove(changed, from, to, "Evaluate"); err != nil {
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

// moveReplica moves one replica of obj in the session's placement and
// updates the memo key with it — the one place either changes between
// rebuilds. op names the caller in the invariants build's key audit.
func (se *Session) moveReplica(obj, from, to int, op string) error {
	if err := se.pl.MoveReplica(obj, from, to); err != nil {
		return err
	}
	se.key = se.key.Move(obj, from, to)
	se.assertKey(op)
	return nil
}

// commitMove is moveReplica for a move the session keeps (Move,
// MoveInto, a one-move Evaluate), logged for the pooled probe forks.
func (se *Session) commitMove(obj, from, to int, op string) error {
	if err := se.moveReplica(obj, from, to, op); err != nil {
		return err
	}
	if se.pool != nil {
		if len(se.pending) == maxPendingMoves {
			se.pool, se.pending = nil, nil
		} else {
			se.pending = append(se.pending, Move{Obj: obj, From: from, To: to})
		}
	}
	return nil
}

// patchInstance applies a replica of obj moving between the given
// NODES to the live instance, unless both lie in one attack-level
// domain, where the domain instance does not change; it reports
// whether the instance moved.
func (se *Session) patchInstance(obj, from, to int) bool {
	cf, ct := from, to
	if se.topo != nil {
		cf, ct = se.topo.DomainOf(from), se.topo.DomainOf(to)
		if cf == ct {
			return false
		}
	}
	se.inst.ApplyMove(obj, se.inst.Pos(cf), se.inst.Pos(ct))
	return true
}

// applyMove patches the live instance for a replica of obj moving
// between the given NODES (the placement is already updated) and
// evaluates the result. The returned result's slices are internal
// (retained by the memo and warm-start baseline); public entry points
// copy before handing them out.
func (se *Session) applyMove(obj, from, to int) SessionResult {
	if !se.patchInstance(obj, from, to) {
		// The move never crosses a domain boundary: the domain
		// instance — hence the worst case — is unchanged.
		se.stats.NoopMoves++
		if se.last != nil {
			se.stats.Evals++
			res := se.last.res
			res.Visited = 0
			res.Memo = true
			if res.Exact {
				se.memo.put(se.key, res)
			}
			return res
		}
		return se.eval(false, 0)
	}
	se.stats.Moves++
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

// eval answers one evaluation of the current live instance: memo →
// greedy + re-validated witness → bracket skip or (warm-started)
// branch-and-bound. ceiling, when bracketed, is a proven upper bound
// on the optimum. The returned result's slices are internal; public
// entry points copy.
func (se *Session) eval(bracketed bool, ceiling int) SessionResult {
	se.stats.Evals++
	if cached, ok := se.memo.get(se.key); ok {
		se.stats.MemoHits++
		cached.Visited = 0
		cached.Memo = true
		se.remember(cached)
		return cached
	}

	var prev []int
	if se.last != nil {
		prev = se.last.ids
	}
	seed, warm := search.WarmSeed(se.inst, prev)
	if warm {
		se.stats.WarmSeeds++
	}

	var res search.Result
	if bracketed && seed.Failed >= ceiling {
		// The seed meets the ±w bracket: nothing can beat it.
		se.stats.BracketSkips++
		res = search.Result{Failed: seed.Failed, Sel: seed.Sel, Exact: true}
	} else {
		res = runBranchAndBound(se.inst, seed, se.opts)
		se.stats.Visited += res.Visited
	}

	out := se.translate(res)
	out.Warm = warm
	se.remember(out)
	if out.Exact {
		se.memo.put(se.key, out)
	}
	return out
}

// translate maps a core result from candidate positions to identities.
func (se *Session) translate(res search.Result) SessionResult {
	ids := se.inst.Units(res.Sel)
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
	if err := se.moveReplica(m.Obj, m.From, m.To, "probe apply"); err != nil {
		return SessionResult{Failed: -1}
	}
	var saved lastEval
	savedOK := se.last != nil
	if savedOK {
		saved = *se.last // the box is reused; save by value
	}
	res := se.copyOut(se.applyMove(m.Obj, m.From, m.To))
	if err := se.moveReplica(m.Obj, m.To, m.From, "probe revert"); err != nil {
		panic(fmt.Sprintf("adversary: probe revert failed: %v", err))
	}
	if se.patchInstance(m.Obj, m.To, m.From) {
		se.stats.Moves++
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
// > 1 fans the batch over that many forked children (probeFork)
// sharing the session's memo, each searching at one worker: the
// fan-out is the call's one level of parallelism, and a serial batch
// keeps SearchOpts.Workers. The children are pooled: forked once, they are
// kept across batches, and each batch first brings them level with the
// session — the moves applied to it since the last batch are replayed
// on every child's placement, memo key and instance, and the child's
// warm baseline is reset to the session's — so a batch pays a few
// one-replica patches per child instead of a deep copy. Because every
// probe is evaluated from the same base state and warm baseline (see
// probe), the results — damage, witness, exactness — are
// byte-identical at any worker count, and a fanned batch's
// visited-state counts equal a one-worker session's, as long as the
// memo cap (defaultMemoCap) is not reached (eviction order is publish
// order, which parallelism does not fix; results stay correct
// regardless, only memo hits vary). The children's counters fold into
// the session's stats before the call returns; Forks counts the
// children forked. An invalid move reports Failed = -1 in its slot.
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
	// Children forked before this batch replay the pending moves; new
	// ones are forked level with the session. Every child resyncs, so
	// the log can be cleared; only the first workers probe.
	synced := len(se.pool)
	for len(se.pool) < workers {
		se.pool = append(se.pool, se.probeFork())
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for ci, ch := range se.pool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var replay []Move
			if ci < synced {
				replay = se.pending
			}
			ch.resync(replay, se.last)
			if ci >= workers {
				return
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(moves) {
					return
				}
				out[i] = ch.probe(moves[i])
			}
		}()
	}
	wg.Wait()
	se.pending = se.pending[:0]
	for _, ch := range se.pool {
		se.stats.add(ch.stats)
	}
	return out
}

// resync brings a pooled probe child level with its session for a
// batch: the session's moves since the last batch are replayed on the
// child's placement, memo key and instance, the warm baseline becomes
// the session's last (nil: none), and the counters restart, so that
// only the batch's work folds into the session. The replay counts
// nothing: the session counted those moves when it made them.
func (ch *Session) resync(replay []Move, last *lastEval) {
	for _, m := range replay {
		if err := ch.moveReplica(m.Obj, m.From, m.To, "resync"); err != nil {
			panic(fmt.Sprintf("adversary: probe fork resync failed: %v", err))
		}
		ch.patchInstance(m.Obj, m.From, m.To)
	}
	switch {
	case last == nil:
		ch.last = nil
	case ch.last == nil:
		l := *last
		ch.last = &l
	default:
		*ch.last = *last
	}
	ch.stats = SessionStats{}
}

// probeFork forks one ProbeMoves worker: a child session sharing the
// session's damage memo, with its own copy of the placement, the live
// instance (search.CloneForMoves: every array a move patches, with the
// unit ids), the memo key and the warm-start baseline — so the child's
// probes never touch the session, while every exact result either side
// publishes is a memo hit for both. Its searches run at one worker: the
// batch fan-out already fills the cores, and a parallel search per
// probe would only add an instance clone and a goroutine competing for
// them. The caller holds the lock.
func (se *Session) probeFork() *Session {
	se.stats.Forks++
	ch := &Session{
		s: se.s, k: se.k, topo: se.topo, opts: se.opts,
		pl:   se.pl.Clone(),
		inst: se.inst.CloneForMoves(),
		memo: se.memo,
		key:  se.key,
	}
	ch.opts.Workers = 1
	if se.last != nil {
		l := *se.last
		ch.last = &l
	}
	ch.assertKey("probe fork")
	return ch
}

// rebuild (re)derives the live instance from the session's placement:
// every node (or attack-level domain) is a unit, idle ones kept — any
// move target must exist — in the canonical order the one-shot engines
// use too (search.HitInstance.Assign), and the instance keeps the
// unit ↔ position maps current across every ApplyMove re-sort.
func (se *Session) rebuild() {
	se.stats.Rebuilds++
	var byID [][]search.Hit
	if se.topo != nil {
		byID, _ = placement.DomainHits(se.pl, se.topo)
	} else {
		byID = nodeHits(se.pl)
	}
	se.inst.Assign(se.k, byID, se.opts.ObjWeights, nil, true)
	se.last = nil // witness positions and instance are fresh; memo survives
	// No move log leads the probe forks to a rebuilt instance.
	se.pool, se.pending = nil, nil
	se.key = placement.Signature(se.pl, se.opts.ObjWeights)
	se.assertKey("rebuild")
}
