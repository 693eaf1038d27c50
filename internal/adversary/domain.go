package adversary

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/combin"
	"repro/internal/placement"
	"repro/internal/search"
	"repro/internal/topology"
)

// This file extends the worst-case adversary to correlated failures: the
// attacker picks whole failure domains from a Topology instead of
// independent nodes, modeling the hierarchical correlated failure
// setting of Mills, Chandrasekaran & Mittal (arXiv:1701.01539). Every
// engine takes the attack level of the topology tree — racks, zones,
// regions, or any deeper tier — as its level argument (0 = top,
// topology.Leaf = racks); the level only selects which Collapse of the
// tree the instance is built from, so all depths run the same generic
// search core (internal/search) as the node-level trio, with no
// level-specific search code. Two attack models:
//
//   - d whole-domain failures: DomainExhaustiveAtWith,
//     DomainGreedyAtWith and DomainWorstCaseAtWith find the d domains at
//     the attack level whose combined node set fails the most objects
//     (an object fails once s of its replicas are covered, as in
//     Definition 1).
//   - k node failures confined to at most d domains:
//     ConstrainedExhaustiveAtWith and ConstrainedWorstCaseAtWith bound
//     how much an attacker with the paper's node budget can gain from
//     correlation.

// DomainResult reports the outcome of a worst-case domain failure
// search. Domains indexes Tree[level] of the topology level the search
// ran at.
// Under SearchOpts.ObjWeights, Failed is the lost weight (see Result).
type DomainResult struct {
	Failed  int   // objects (or weight, under ObjWeights) failed by the best attack found
	Domains []int // attacking domain indices at the search level, sorted
	Nodes   []int // union of the attacked domains' nodes, sorted
	Exact   bool  // true if Failed is provably the maximum
	Visited int64 // search states visited (diagnostics/ablation)
}

// Avail returns b - Failed for the placement the result was computed on.
func (r DomainResult) Avail(b int) int { return b - r.Failed }

// checkDomainQuery validates a domain-level query — the one check the
// whole-domain engines, the session and the constrained engine share —
// and projects the topology to the attack level: the flat depth-1 view
// every engine instance is built from (the leaf level of any depth is
// already flat for the leaf-only accessors, so it avoids the copy). In
// order: the placement, the topology and the level, then 1 <= s <= r,
// then 1 <= d <= domains at the level, then the object weights.
func checkDomainQuery(pl *placement.Placement, topo *topology.Topology, level, s, d int, w []int64) (*topology.Topology, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if topo.N != pl.N {
		return nil, fmt.Errorf("adversary: topology covers %d nodes, placement has %d", topo.N, pl.N)
	}
	l, err := topo.ResolveLevel(level)
	if err != nil {
		return nil, fmt.Errorf("adversary: %w", err)
	}
	if l != topo.Levels()-1 {
		if topo, err = topo.Collapse(l); err != nil {
			return nil, err
		}
	}
	if s < 1 || s > pl.R {
		return nil, fmt.Errorf("adversary: s = %d must satisfy 1 <= s <= r = %d", s, pl.R)
	}
	// Unlike the node-level k < n, d = NumDomains is allowed: "every
	// domain fails" is a well-defined (if grim) query, and the placement
	// side (SpreadAcrossDomains) accepts it too.
	if nd := topo.NumDomains(); d < 1 || d > nd {
		return nil, fmt.Errorf("adversary: d = %d must satisfy 1 <= d <= domains = %d", d, nd)
	}
	if err := checkObjWeights(w, pl); err != nil {
		return nil, err
	}
	return topo, nil
}

// newDomInstance validates a whole-domain query and assigns its
// instance over the domains of the attack level, loaded domains first,
// padded with empty ones up to d. It returns the collapsed topology the
// result's node union is read from.
func newDomInstance(pl *placement.Placement, topo *topology.Topology, level, s, d int, w []int64) (*search.HitInstance, *topology.Topology, error) {
	topo, err := checkDomainQuery(pl, topo, level, s, d, w)
	if err != nil {
		return nil, nil, err
	}
	byDomain, _ := placement.DomainHits(pl, topo)
	in := search.NewHitInstance(s, pl.B())
	in.Assign(d, byDomain, w, nil, false)
	return in, topo, nil
}

// domResult translates a core result on in from candidate positions to
// domain indices and their node union.
func domResult(in *search.HitInstance, topo *topology.Topology, res search.Result) DomainResult {
	domains := in.Units(res.Sel)
	return DomainResult{
		Failed:  res.Failed,
		Domains: domains,
		Nodes:   topo.FailedSet(domains).Members(nil),
		Exact:   res.Exact,
		Visited: res.Visited,
	}
}

// DomainExhaustiveAtWith enumerates every d-subset of the domains at
// the given topology level (0 = top, topology.Leaf = racks). Cost is
// C(D, d) times the incremental update cost; the reference oracle for
// tests. (Assign pads the candidates with empty domains up to d, and
// d <= NumDomains, so every engine always has at least d candidates.)
// Only opts.ObjWeights applies.
func DomainExhaustiveAtWith(pl *placement.Placement, topo *topology.Topology, level, s, d int, opts SearchOpts) (DomainResult, error) {
	in, flat, err := newDomInstance(pl, topo, level, s, d, opts.ObjWeights)
	if err != nil {
		return DomainResult{}, err
	}
	return domResult(in, flat, search.Exhaustive(in)), nil
}

// DomainGreedyAtWith picks d domains of the given level by maximum
// marginal damage, then improves the set with single-swap local search.
// The result is a valid correlated attack (a lower bound on the worst
// case) but not guaranteed optimal. Only opts.ObjWeights applies.
func DomainGreedyAtWith(pl *placement.Placement, topo *topology.Topology, level, s, d int, opts SearchOpts) (DomainResult, error) {
	in, flat, err := newDomInstance(pl, topo, level, s, d, opts.ObjWeights)
	if err != nil {
		return DomainResult{}, err
	}
	return domResult(in, flat, search.Greedy(in)), nil
}

// DomainWorstCaseWith is DomainWorstCaseAtWith at the leaf level. It is
// kept only because the benchmark program (perfbench) calls it; new
// callers pass topology.Leaf to DomainWorstCaseAtWith.
func DomainWorstCaseWith(pl *placement.Placement, topo *topology.Topology, s, d int, opts SearchOpts) (DomainResult, error) {
	return DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, opts)
}

// DomainWorstCaseAtWith runs branch-and-bound over the domains of the
// given topology level, seeded with the greedy incumbent and pruned
// with the shared bounds — the one change needed to fail
// zones or regions instead of racks; the search itself is identical at
// every level. Budget, workers and bound follow WorstCaseWith (the
// drivers are shared).
func DomainWorstCaseAtWith(pl *placement.Placement, topo *topology.Topology, level, s, d int, opts SearchOpts) (DomainResult, error) {
	in, flat, err := newDomInstance(pl, topo, level, s, d, opts.ObjWeights)
	if err != nil {
		return DomainResult{}, err
	}
	seed, _ := search.WarmSeed(in, nil)
	return domResult(in, flat, runBranchAndBound(in, seed, opts)), nil
}

// constrainedShared is the subset-independent preprocessing of a
// constrained search: per-node hit lists and parameter validation,
// shared by every worker.
type constrainedShared struct {
	pl       *placement.Placement
	topo     *topology.Topology
	s, k, d  int
	w        []int64        // optional per-object weights (nil = unit)
	nodeHits [][]search.Hit // per node, C = 1, objects ascending
}

func newConstrainedShared(pl *placement.Placement, topo *topology.Topology, level, s, k, d int, w []int64) (*constrainedShared, error) {
	topo, err := checkDomainQuery(pl, topo, level, s, d, w)
	if err != nil {
		return nil, err
	}
	if k < 1 || k >= pl.N {
		return nil, fmt.Errorf("adversary: k = %d must satisfy 1 <= k < n = %d", k, pl.N)
	}
	return &constrainedShared{pl: pl, topo: topo, s: s, k: k, d: d, w: w, nodeHits: nodeHits(pl)}, nil
}

// subsetInstance re-assigns a worker's instance to the nodes of the
// given domains: the attacker fails min(k, nodes available) of them
// (smaller unions simply yield smaller attacks). ids is the worker's
// node-list scratch, returned for reuse; the instance's CSR arrays
// (and object counters, left balanced by the drivers) are recycled
// across every domain subset.
func (sh *constrainedShared) subsetInstance(in *search.HitInstance, domains, ids []int) []int {
	ids = sh.topo.FailedSet(domains).Members(ids[:0])
	in.Assign(min(sh.k, len(ids)), sh.nodeHits, sh.w, ids, false)
	return ids
}

// constrainedRun is one constrained search in flight: the shared
// preprocessing, the one state budget every per-subset search draws
// from, the subset cursor, and the best attack so far. mu guards the
// cursor and best; only runs with more than one worker contend it.
type constrainedRun struct {
	sh       *constrainedShared
	bnb      bool // branch-and-bound per subset, else exhaustive enumeration
	bud      *search.Budget
	bound    search.Bound
	mu       sync.Mutex
	next     []int // the next domain subset to hand out, in lex order
	rank     int   // next's lex rank among the subsets
	more     bool  // next holds a subset not yet handed out
	best     DomainResult
	bestRank int // lex rank of the subset best came from
}

// take copies the next domain subset into dst and returns its lex
// rank, or reports false once every subset is handed out or the budget
// is drained. A drained budget ends the whole search — the skipped
// subsets make the result inexact, and running their budget-free
// greedy seeding anyway would leave the budget unable to bound runtime.
func (cr *constrainedRun) take(dst []int) (rank int, ok bool) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if !cr.more {
		return 0, false
	}
	if cr.bud.Exhausted() {
		cr.best.Exact = false
		return 0, false
	}
	copy(dst, cr.next)
	cr.more = combin.NextSubset(cr.sh.topo.NumDomains(), cr.next)
	cr.rank++
	return cr.rank - 1, true
}

// work is the one subset loop every worker runs, with its own reusable
// instance, until the cursor refuses.
func (cr *constrainedRun) work() {
	in := search.NewHitInstance(cr.sh.s, cr.sh.pl.B())
	domains := make([]int, cr.sh.d)
	var ids []int
	for {
		rank, ok := cr.take(domains)
		if !ok {
			return
		}
		ids = cr.sh.subsetInstance(in, domains, ids)
		if !cr.bnb {
			cr.merge(rank, in, search.Exhaustive(in))
			continue
		}
		// Seed greedy and lift the shared incumbent into the seed, so
		// the bound prunes across subsets (and workers) — budget isn't
		// wasted on dominated states. An incumbent from a later subset
		// (only with more workers) lifts it one less: a tie here must
		// still be found, since the earlier subset's witness wins it.
		seed, _ := search.WarmSeed(in, nil)
		cr.mu.Lock()
		global := cr.best.Failed
		if cr.bestRank > rank {
			global--
		}
		cr.mu.Unlock()
		if global > seed.Failed {
			seed = search.Result{Failed: global}
		}
		cr.merge(rank, in, search.BranchAndBound(in, seed, cr.bud, 1, cr.bound))
	}
}

// merge folds one subset's result, searched on in, into the best
// attack. Equal damage goes to the subset of lower lex rank, so the
// witness does not depend on which worker finished first. (A result
// that only matched a lifted seed carries no witness, but its rank is
// above best's: see work.)
func (cr *constrainedRun) merge(rank int, in *search.HitInstance, res search.Result) {
	nodes := in.Units(res.Sel)
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if res.Failed > cr.best.Failed || res.Failed == cr.best.Failed && rank < cr.bestRank {
		cr.best.Failed = res.Failed
		cr.best.Nodes = nodes
		cr.best.Domains = domainsOfNodes(cr.sh.topo, nodes)
		cr.bestRank = rank
	}
	if !res.Exact {
		cr.best.Exact = false
	}
	if !cr.bnb {
		cr.best.Visited += res.Visited // branch-and-bound reads the shared budget instead
	}
}

// constrainedSearch finds the worst k node failures confined to at most d
// domains, running the core search (branch-and-bound when bnb, else
// exhaustive enumeration) within every d-subset of domains. The budget,
// when positive, is shared across the whole search — every per-subset
// branch-and-bound draws states from the same pool, matching the
// unconstrained engines' semantics. More than one worker pulls subsets
// from the shared cursor concurrently; each subset search runs on one
// worker.
func constrainedSearch(pl *placement.Placement, topo *topology.Topology, level, s, k, d int, opts SearchOpts, bnb bool) (DomainResult, error) {
	sh, err := newConstrainedShared(pl, topo, level, s, k, d, opts.ObjWeights)
	if err != nil {
		return DomainResult{}, err
	}
	cr := &constrainedRun{
		sh:       sh,
		bnb:      bnb,
		bud:      search.NewBudget(opts.Budget),
		bound:    opts.Bound,
		next:     make([]int, d),
		best:     DomainResult{Failed: -1, Exact: true},
		bestRank: math.MaxInt,
	}
	cr.more = combin.FirstSubset(sh.topo.NumDomains(), cr.next)
	var wg sync.WaitGroup
	for w := 1; w < opts.resolveWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cr.work()
		}()
	}
	cr.work()
	wg.Wait()
	if bnb {
		cr.best.Visited = cr.bud.Used()
	}
	if cr.best.Failed < 0 {
		cr.best.Failed = 0
	}
	return cr.best, nil
}

// ConstrainedExhaustiveAtWith finds the exact worst k node failures
// spanning at most d domains of the given topology level by full
// enumeration. Reference oracle for tests; only opts.ObjWeights
// applies.
func ConstrainedExhaustiveAtWith(pl *placement.Placement, topo *topology.Topology, level, s, k, d int, opts SearchOpts) (DomainResult, error) {
	return constrainedSearch(pl, topo, level, s, k, d, SearchOpts{ObjWeights: opts.ObjWeights}, false)
}

// ConstrainedWorstCaseAtWith finds the worst k node failures spanning at
// most d domains of the given topology level (k nodes inside at most d
// racks, zones, regions, ...) via per-subset branch-and-bound.
// opts.Budget, when positive, bounds the state total across all subsets
// (one shared pool, the package-wide semantics); Exact reports whether
// every subset completed. opts.Workers spreads the C(D, d) subsets
// across goroutines sharing the incumbent and the budget. An exact
// search returns the same damage and witness at any worker count (ties
// go to the subset first in lex order); Visited is then fixed only at
// one worker, since with more it depends on when each subset sees the
// shared incumbent.
func ConstrainedWorstCaseAtWith(pl *placement.Placement, topo *topology.Topology, level, s, k, d int, opts SearchOpts) (DomainResult, error) {
	return constrainedSearch(pl, topo, level, s, k, d, opts, true)
}

// domainsOfNodes returns the sorted, deduplicated domain indices touched
// by the given nodes.
func domainsOfNodes(topo *topology.Topology, nodes []int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, nd := range nodes {
		di := topo.DomainOf(nd)
		if !seen[di] {
			seen[di] = true
			out = append(out, di)
		}
	}
	sort.Ints(out)
	return out
}
