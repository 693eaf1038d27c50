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
// README) for the shared drivers, the gain-vector pruning bounds, and
// the budget semantics:
//
//   - Exhaustive: enumerate all C(n, k) subsets. Reference oracle for
//     tests and tiny instances.
//   - Greedy: greedy marginal-gain selection followed by swap-based local
//     search. Fast; yields a lower bound on the damage (upper bound on
//     availability).
//   - WorstCase: branch-and-bound over candidates ordered by load, seeded
//     with the greedy incumbent, pruned with the static
//     replica-counting bound failed(K) <= ⌊(Σ_{nd∈K} load(nd)) / s⌋
//     and the gain-vector bounds (under SearchOpts{Bound:
//     search.BoundStatic}, the static bound alone).
//     Exact when it completes within its state budget; otherwise it
//     degrades gracefully and reports Exact = false. It runs on
//     search.BranchAndBound, the one work-stealing driver, with
//     SearchOpts.Workers workers (one, on the caller's goroutine, by
//     default).
//
// Every adapter builds the *search.HitInstance the drivers take — one
// flat CSR hit layout for node-level (C = 1), whole-domain (aggregated
// C), and constrained searches alike — the same way: hits by unit (node
// or domain), then HitInstance.Assign, which picks and orders the
// candidates and keeps the unit ids that Units translates the result
// back through.
package adversary

import (
	"fmt"
	"runtime"

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
// unlimited (exact), one-worker, residual-pruned, unweighted search.
type SearchOpts struct {
	// Budget caps the branch-and-bound states visited (<= 0: unlimited,
	// result exact). One shared pool per logical search: across workers
	// and, for the constrained engines, across domain subsets.
	Budget int64
	// Workers fans the search out over goroutines: 0 or 1 runs one
	// worker on the caller's goroutine, < 0 GOMAXPROCS. Exact searches
	// return identical damage at any worker count; budgeted parallel
	// searches may report different (still valid) lower bounds run to
	// run.
	Workers int
	// Bound selects the pruning discipline — search.BoundResidual (the
	// default) or search.BoundStatic (the ablation baseline). Both
	// return identical results; residual visits no more states.
	Bound search.Bound
	// ObjWeights switches every engine to weighted damage: object obj
	// is worth ObjWeights[obj] (>= 0) and the adversary maximizes the
	// total weight of the failed objects instead of their count —
	// Result.Failed / DomainResult.Failed are then lost weight. The
	// candidate ordering, the loads, gains and overlaps the pruning
	// bounds read all run in weight units (see internal/search), so an all-ones vector
	// reproduces the unweighted search byte for byte: same damage, same
	// witness, same visited-state count. nil means unit weights. Derive
	// per-object weights from a topology's node weights with
	// placement.ObjectWeights. A vector whose weighted replica total
	// r·Σw overflows int64 is rejected with a
	// *placement.WeightOverflowError.
	ObjWeights []int64
}

// resolveWorkers maps the SearchOpts convention onto a concrete count —
// the library's one worker-count resolver: the search core takes only
// resolved counts.
func (o SearchOpts) resolveWorkers() int {
	if o.Workers < 0 {
		return runtime.GOMAXPROCS(0) //lint:allow nodeterm worker-count default only; results are proven worker-count invariant
	}
	if o.Workers == 0 {
		return 1
	}
	return o.Workers
}

// runBranchAndBound is the one branch-and-bound call from a seed
// (search.WarmSeed's) shared by the node- and domain-level engines and
// the Session. Extra workers search clones of in; the driver unwinds in
// before it returns, so in comes back clean.
func runBranchAndBound(in *search.HitInstance, seed search.Result, opts SearchOpts) search.Result {
	return search.BranchAndBound(in, seed, search.NewBudget(opts.Budget), opts.resolveWorkers(), opts.Bound)
}

// checkObjWeights validates an optional per-object weight vector
// against a placement: one non-negative weight per object, with a
// weighted replica total that fits the int64 loads.
func checkObjWeights(w []int64, pl *placement.Placement) error {
	if w == nil {
		return nil
	}
	if len(w) != pl.B() {
		return fmt.Errorf("adversary: %d object weights for %d objects", len(w), pl.B())
	}
	for obj, v := range w {
		if v < 0 {
			return fmt.Errorf("adversary: object %d weight %d negative", obj, v)
		}
	}
	return placement.CheckWeightTotal(w, pl.R)
}

// checkNodeQuery validates a node-level query — the one check the
// engines and the session share: the placement, then 1 <= s <= r,
// then 1 <= k < n, then the object weights.
func checkNodeQuery(pl *placement.Placement, s, k int, w []int64) error {
	if err := pl.Validate(); err != nil {
		return err
	}
	if s < 1 || s > pl.R {
		return fmt.Errorf("adversary: s = %d must satisfy 1 <= s <= r = %d", s, pl.R)
	}
	if k < 1 || k >= pl.N {
		return fmt.Errorf("adversary: k = %d must satisfy 1 <= k < n = %d", k, pl.N)
	}
	return checkObjWeights(w, pl)
}

// newInstance validates a node-level query and assigns its instance:
// every node is a unit, loaded nodes first, padded with empty ones up
// to k (k < n guarantees enough exist).
func newInstance(pl *placement.Placement, s, k int, w []int64) (*search.HitInstance, error) {
	if err := checkNodeQuery(pl, s, k, w); err != nil {
		return nil, err
	}
	in := search.NewHitInstance(s, pl.B())
	in.Assign(k, nodeHits(pl), w, nil, false)
	return in, nil
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

// nodeResult translates a core result on in from candidate positions
// to node ids.
func nodeResult(in *search.HitInstance, res search.Result) Result {
	return Result{Failed: res.Failed, Nodes: in.Units(res.Sel), Exact: res.Exact, Visited: res.Visited}
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
	return nodeResult(in, search.Exhaustive(in)), nil
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
	return nodeResult(in, search.Greedy(in)), nil
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
	seed, _ := search.WarmSeed(in, nil)
	// Candidate order is deterministic, so in translates any worker's
	// selection.
	return nodeResult(in, runBranchAndBound(in, seed, opts)), nil
}
