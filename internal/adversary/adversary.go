// Package adversary computes (or bounds) the worst-case k-node failure
// against a placement: the set K of k nodes maximizing the number of
// failed objects, where an object fails once s of its replicas lie in K
// (paper Definition 1: Avail(π) is b minus this maximum).
//
// The problem generalizes maximum coverage and is NP-hard. Every engine
// in this package — the node-level trio (ExhaustiveWith, GreedyWith,
// WorstCaseWith), the whole-domain trio (DomainExhaustiveAtWith,
// DomainGreedyAtWith, DomainWorstCaseAtWith) and the constrained
// k-nodes-in-≤d-domains pair — is a thin adapter over the one generic
// search core in internal/search; see that package (and this package's
// README) for the shared drivers, the residual-load pruning bound, and
// the budget semantics:
//
//   - Exhaustive: enumerate all C(n, k) subsets. Reference oracle for
//     tests and tiny instances.
//   - Greedy: greedy marginal-gain selection followed by swap-based local
//     search. Fast; yields a lower bound on the damage (upper bound on
//     availability).
//   - WorstCase: branch-and-bound over candidates ordered by load, seeded
//     with the greedy incumbent, pruned with the residual-load bound (or,
//     under SearchOpts{Bound: search.BoundStatic}, the static
//     replica-counting bound failed(K) <= ⌊(Σ_{nd∈K} load(nd)) / s⌋).
//     Exact when it completes within its state budget; otherwise it
//     degrades gracefully and reports Exact = false. SearchOpts.Workers
//     fans it out over the work-stealing parallel driver.
//
// Every adapter is a search.HitInstance — one flat CSR hit layout for
// node-level (C = 1), whole-domain (aggregated C), and constrained
// searches alike — plus a candidate-selection policy and the candidate
// index → identity mapping.
package adversary

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/placement"
	"repro/internal/search"
)

// Result reports the outcome of a worst-case search. Under
// SearchOpts.ObjWeights, Failed is the total WEIGHT of the failed
// objects (lost weight, not count); Avail then reads b as the total
// weight — pair weighted searches with placement.SumWeights.
type Result struct {
	Failed  int   // objects (or weight, under ObjWeights) failed by the best attack found
	Nodes   []int // the attacking node set, sorted
	Exact   bool  // true if Failed is provably the maximum
	Visited int64 // search states visited (diagnostics/ablation)
}

// Avail returns b - Failed for the placement the result was computed on.
func (r Result) Avail(b int) int { return b - r.Failed }

// SearchOpts tunes how an engine searches; the zero value is an
// unlimited (exact), serial, residual-pruned, unweighted search.
type SearchOpts struct {
	// Budget caps the branch-and-bound states visited (<= 0: unlimited,
	// result exact). One shared pool per logical search: across workers
	// and, for the constrained engines, across domain subsets.
	Budget int64
	// Workers fans the search out over goroutines: 0 or 1 serial, < 0
	// GOMAXPROCS. Exact searches return identical damage at any worker
	// count; budgeted parallel searches may report different (still
	// valid) lower bounds run to run.
	Workers int
	// Bound selects the pruning discipline — search.BoundResidual (the
	// default) or search.BoundStatic (the ablation baseline). Both
	// return identical results; residual visits no more states.
	Bound search.Bound
	// MemoCap bounds the damage memo of incremental Sessions (the
	// one-shot engines keep no memo): total memoized results across
	// the memo's shards, evicted FIFO past the cap. 0 picks a default
	// large enough that bounded workloads never evict (1<<16); < 0 is
	// unlimited. Parallel probing (Session.ProbeMoves) is visit-count
	// deterministic only while the cap is unreached — see the session
	// docs — so leave it at the default unless memory is the concern.
	MemoCap int
	// ObjWeights switches every engine to weighted damage: object obj
	// is worth ObjWeights[obj] (>= 0) and the adversary maximizes the
	// total weight of the failed objects instead of their count —
	// Result.Failed / DomainResult.Failed are then lost weight. The
	// candidate ordering, the pruning bounds and the residual ledger all
	// run in weight units (see internal/search), so an all-ones vector
	// reproduces the unweighted search byte for byte: same damage, same
	// witness, same visited-state count. nil means unit weights. Derive
	// per-object weights from a topology's node weights with
	// placement.ObjectWeights.
	ObjWeights []int64
}

// resolveMemoCap maps the SearchOpts convention onto a concrete cap
// for newSessionMemo (0 there = unlimited).
func (o SearchOpts) resolveMemoCap() int {
	if o.MemoCap < 0 {
		return 0
	}
	if o.MemoCap == 0 {
		return defaultMemoCap
	}
	return o.MemoCap
}

// resolveWorkers maps the SearchOpts convention onto a concrete count.
func (o SearchOpts) resolveWorkers() int {
	if o.Workers < 0 {
		return runtime.GOMAXPROCS(0) //lint:allow nodeterm worker-count default only; results are proven worker-count invariant
	}
	if o.Workers == 0 {
		return 1
	}
	return o.Workers
}

// runBranchAndBound is the one greedy-seed → Reset → serial-or-parallel
// branch-and-bound dispatch shared by the node- and domain-level
// engines (the constrained pair shards domain subsets instead).
func runBranchAndBound(probe search.Instance, clone func() search.Instance, opts SearchOpts) (search.Result, error) {
	seed := search.Greedy(probe)
	probe.Reset()
	bud := search.NewBudget(opts.Budget)
	if workers := opts.resolveWorkers(); workers > 1 {
		return search.BranchAndBoundParallelWith(probe, func() (search.Instance, error) {
			return clone(), nil
		}, seed, bud, workers, opts.Bound)
	}
	return search.BranchAndBoundWith(probe, seed, bud, opts.Bound), nil
}

// nodeInstance adapts a placement to search.HitInstance with individual
// nodes as the unit of failure (every hit has C = 1), keeping the
// candidate index → node id mapping.
type nodeInstance struct {
	*search.HitInstance
	candidates []int // nodes hosting at least one replica, by descending load
}

// checkObjWeights validates an optional per-object weight vector
// against a placement's object count.
func checkObjWeights(w []int64, b int) error {
	if w == nil {
		return nil
	}
	if len(w) != b {
		return fmt.Errorf("adversary: %d object weights for %d objects", len(w), b)
	}
	for obj, v := range w {
		if v < 0 {
			return fmt.Errorf("adversary: object %d weight %d negative", obj, v)
		}
	}
	return nil
}

// weightedLoads maps per-candidate hit lists to their weighted loads
// Σ C·w[obj] — the load contract of a SetWeights instance. With w nil
// it returns the plain replica counts.
func weightedLoads(hitLists [][]search.Hit, w []int64) []int64 {
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

func newInstance(pl *placement.Placement, s, k int, w []int64) (*nodeInstance, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if s < 1 || s > pl.R {
		return nil, fmt.Errorf("adversary: s = %d must satisfy 1 <= s <= r = %d", s, pl.R)
	}
	if k < 1 || k >= pl.N {
		return nil, fmt.Errorf("adversary: k = %d must satisfy 1 <= k < n = %d", k, pl.N)
	}
	if err := checkObjWeights(w, pl.B()); err != nil {
		return nil, err
	}
	perNode := nodeHits(pl)
	loadsByNode := pl.NodeLoads()
	wloads := weightedLoads(perNode, w)
	var candidates []int
	for nd, l := range loadsByNode {
		if l > 0 {
			candidates = append(candidates, nd)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if wloads[candidates[i]] != wloads[candidates[j]] {
			return wloads[candidates[i]] > wloads[candidates[j]]
		}
		return candidates[i] < candidates[j]
	})
	// If fewer than k nodes carry load, pad with empty nodes (they do no
	// harm, but the attack set must have k members; k < n guarantees
	// enough nodes exist).
	for nd := 0; nd < pl.N && len(candidates) < k; nd++ {
		if loadsByNode[nd] == 0 {
			candidates = append(candidates, nd)
		}
	}
	hitLists := make([][]search.Hit, len(candidates))
	loads := make([]int64, len(candidates))
	for i, nd := range candidates {
		hitLists[i] = perNode[nd]
		loads[i] = wloads[nd]
	}
	inst := &nodeInstance{HitInstance: search.NewHitInstance(s, pl.B()), candidates: candidates}
	inst.Reinit(k, hitLists, loads)
	inst.SetWeights(w)
	return inst, nil
}

// nodeHits builds the per-node hit lists (C = 1 per hosted replica,
// objects ascending) every node-level adapter shares.
func nodeHits(pl *placement.Placement) [][]search.Hit {
	perNode := make([][]search.Hit, pl.N)
	var buf []int
	for obj := 0; obj < pl.B(); obj++ {
		buf = pl.Objects[obj].Members(buf[:0])
		for _, nd := range buf {
			perNode[nd] = append(perNode[nd], search.Hit{Obj: int32(obj), C: 1})
		}
	}
	return perNode
}

// clone returns an independent searcher sharing the immutable
// preprocessing (CSR hits, candidate order, loads) with fresh counters —
// how the parallel driver stamps out per-worker instances.
func (in *nodeInstance) clone() *nodeInstance {
	return &nodeInstance{HitInstance: in.HitInstance.Clone(), candidates: in.candidates}
}

// result translates a core result from candidate-index space to node ids.
func (in *nodeInstance) result(res search.Result) Result {
	nodes := make([]int, len(res.Sel))
	for i, ci := range res.Sel {
		nodes[i] = in.candidates[ci]
	}
	sort.Ints(nodes)
	return Result{
		Failed:  res.Failed,
		Nodes:   nodes,
		Exact:   res.Exact,
		Visited: res.Visited,
	}
}

// ExhaustiveWith enumerates every k-subset of nodes. Cost is C(n, k)
// times the incremental update cost; use only when that product is
// small. Only opts.ObjWeights applies (enumeration has no budget,
// workers or bound).
func ExhaustiveWith(pl *placement.Placement, s, k int, opts SearchOpts) (Result, error) {
	in, err := newInstance(pl, s, k, opts.ObjWeights)
	if err != nil {
		return Result{}, err
	}
	return in.result(search.Exhaustive(in)), nil
}

// GreedyWith picks k nodes by maximum marginal damage, then improves the
// set with single-swap local search. The result is a valid attack (its
// damage is a lower bound on the worst case) but is not guaranteed
// optimal. Only opts.ObjWeights applies.
func GreedyWith(pl *placement.Placement, s, k int, opts SearchOpts) (Result, error) {
	in, err := newInstance(pl, s, k, opts.ObjWeights)
	if err != nil {
		return Result{}, err
	}
	return in.result(search.Greedy(in)), nil
}

// WorstCaseWith runs branch-and-bound seeded with the greedy incumbent.
// With opts.Budget <= 0 the search is unbounded and the result is exact;
// otherwise the search stops after visiting Budget states and the
// incumbent is returned with Exact reflecting whether the search
// completed. (One state = one partial attack set considered; greedy
// seeding is budget-free — the semantics every engine in this package
// shares.) opts.Workers fans the search out; exact runs return the same
// result at any worker count.
func WorstCaseWith(pl *placement.Placement, s, k int, opts SearchOpts) (Result, error) {
	in, err := newInstance(pl, s, k, opts.ObjWeights)
	if err != nil {
		return Result{}, err
	}
	res, err := runBranchAndBound(in, func() search.Instance { return in.clone() }, opts)
	if err != nil {
		return Result{}, err
	}
	// Candidate order is deterministic, so in translates any worker's
	// selection.
	return in.result(res), nil
}
