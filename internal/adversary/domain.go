package adversary

import (
	"fmt"
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

// domInstance searches whole domains as the unit of failure: a
// search.HitInstance over the aggregated replica hits of
// placement.DomainHits, plus the candidate policy (prune unloaded
// domains, pad back up to d) and the index→domain mapping.
type domInstance struct {
	*search.HitInstance
	topo  *topology.Topology
	cands []int // domains hosting at least one replica, by descending load
}

// collapseTo validates the topology and projects it to the requested
// attack level: the flat depth-1 view every engine instance is built
// from. The leaf level of any depth is already flat for the leaf-only
// accessors, so it avoids the copy.
func collapseTo(pl *placement.Placement, topo *topology.Topology, level int) (*topology.Topology, error) {
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
	if l == topo.Levels()-1 {
		return topo, nil
	}
	return topo.Collapse(l)
}

func newDomInstance(pl *placement.Placement, topo *topology.Topology, level, s, d int, w []int64) (*domInstance, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	topo, err := collapseTo(pl, topo, level)
	if err != nil {
		return nil, err
	}
	if s < 1 || s > pl.R {
		return nil, fmt.Errorf("adversary: s = %d must satisfy 1 <= s <= r = %d", s, pl.R)
	}
	if err := checkObjWeights(w, pl); err != nil {
		return nil, err
	}
	nd := topo.NumDomains()
	// Unlike the node-level k < n, d = NumDomains is allowed: "every
	// domain fails" is a well-defined (if grim) query, and the placement
	// side (SpreadAcrossDomains) accepts it too.
	if d < 1 || d > nd {
		return nil, fmt.Errorf("adversary: d = %d must satisfy 1 <= d <= domains = %d", d, nd)
	}
	in := &domInstance{HitInstance: search.NewHitInstance(s, pl.B()), topo: topo}
	byDomain, loads := placement.DomainHits(pl, topo)
	wloads := search.WeightedLoads(byDomain, w)
	for di := 0; di < nd; di++ {
		if loads[di] > 0 {
			in.cands = append(in.cands, di)
		}
	}
	search.CanonicalOrder(in.cands, wloads)
	// Pad with empty domains so the attack set can always have d members.
	for di := 0; di < nd && len(in.cands) < d; di++ {
		if loads[di] == 0 {
			in.cands = append(in.cands, di)
		}
	}
	hitLists := make([][]search.Hit, len(in.cands))
	ordered := make([]int64, len(in.cands))
	for i, di := range in.cands {
		hitLists[i] = byDomain[di]
		ordered[i] = wloads[di]
	}
	in.Reinit(d, hitLists, ordered)
	in.SetWeights(w)
	return in, nil
}

// result translates a core result from candidate-index space to domain
// indices and their node union.
func (in *domInstance) result(res search.Result) DomainResult {
	domains := make([]int, len(res.Sel))
	for i, ci := range res.Sel {
		domains[i] = in.cands[ci]
	}
	sort.Ints(domains)
	return DomainResult{
		Failed:  res.Failed,
		Domains: domains,
		Nodes:   in.topo.FailedSet(domains).Members(nil),
		Exact:   res.Exact,
		Visited: res.Visited,
	}
}

// DomainExhaustiveAtWith enumerates every d-subset of the domains at
// the given topology level (0 = top, topology.Leaf = racks). Cost is
// C(D, d) times the incremental update cost; the reference oracle for
// tests. (newDomInstance pads its candidates with empty domains up to
// d, and d <= NumDomains, so every engine always has at least d
// candidates.) Only opts.ObjWeights applies.
func DomainExhaustiveAtWith(pl *placement.Placement, topo *topology.Topology, level, s, d int, opts SearchOpts) (DomainResult, error) {
	in, err := newDomInstance(pl, topo, level, s, d, opts.ObjWeights)
	if err != nil {
		return DomainResult{}, err
	}
	return in.result(search.Exhaustive(in.HitInstance)), nil
}

// DomainGreedyAtWith picks d domains of the given level by maximum
// marginal damage, then improves the set with single-swap local search.
// The result is a valid correlated attack (a lower bound on the worst
// case) but not guaranteed optimal. Only opts.ObjWeights applies.
func DomainGreedyAtWith(pl *placement.Placement, topo *topology.Topology, level, s, d int, opts SearchOpts) (DomainResult, error) {
	in, err := newDomInstance(pl, topo, level, s, d, opts.ObjWeights)
	if err != nil {
		return DomainResult{}, err
	}
	return in.result(search.Greedy(in.HitInstance)), nil
}

// DomainWorstCaseWith is DomainWorstCaseAtWith at the leaf level. It is
// kept only because the benchmark program (perfbench) calls it; new
// callers pass topology.Leaf to DomainWorstCaseAtWith.
func DomainWorstCaseWith(pl *placement.Placement, topo *topology.Topology, s, d int, opts SearchOpts) (DomainResult, error) {
	return DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, opts)
}

// DomainWorstCaseAtWith runs branch-and-bound over the domains of the
// given topology level, seeded with the greedy incumbent and pruned
// with the shared residual-load bound — the one change needed to fail
// zones or regions instead of racks; the search itself is identical at
// every level. Budget, workers and bound follow WorstCaseWith (the
// drivers are shared).
func DomainWorstCaseAtWith(pl *placement.Placement, topo *topology.Topology, level, s, d int, opts SearchOpts) (DomainResult, error) {
	in, err := newDomInstance(pl, topo, level, s, d, opts.ObjWeights)
	if err != nil {
		return DomainResult{}, err
	}
	seed, _ := search.WarmSeed(in.HitInstance, nil, nil)
	return in.result(runBranchAndBound(in.HitInstance, seed, opts)), nil
}

// constrainedShared is the subset-independent preprocessing of a
// constrained search: per-node hit lists, per-node loads, candidate
// orderings and parameter validation, shared by every worker.
type constrainedShared struct {
	pl          *placement.Placement
	topo        *topology.Topology
	s, k, d     int
	w           []int64        // optional per-object weights (nil = unit)
	nodeHits    [][]search.Hit // per node, C = 1, objects ascending
	loadsByNode []int
	wloads      []int64 // per-node weighted loads Σ w[obj] (== loads when w nil)
	loaded      []int   // nodes with load, by descending weighted load (ties: id)
	empty       []int   // zero-load nodes, ascending id
}

func newConstrainedShared(pl *placement.Placement, topo *topology.Topology, level, s, k, d int, w []int64) (*constrainedShared, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	topo, err := collapseTo(pl, topo, level)
	if err != nil {
		return nil, err
	}
	if s < 1 || s > pl.R {
		return nil, fmt.Errorf("adversary: s = %d must satisfy 1 <= s <= r = %d", s, pl.R)
	}
	if k < 1 || k >= pl.N {
		return nil, fmt.Errorf("adversary: k = %d must satisfy 1 <= k < n = %d", k, pl.N)
	}
	if d < 1 || d > topo.NumDomains() {
		return nil, fmt.Errorf("adversary: d = %d must satisfy 1 <= d <= domains = %d", d, topo.NumDomains())
	}
	if err := checkObjWeights(w, pl); err != nil {
		return nil, err
	}
	sh := &constrainedShared{pl: pl, topo: topo, s: s, k: k, d: d, w: w}
	sh.nodeHits = nodeHits(pl)
	sh.loadsByNode = pl.NodeLoads()
	sh.wloads = search.WeightedLoads(sh.nodeHits, w)
	for node, l := range sh.loadsByNode {
		if l > 0 {
			sh.loaded = append(sh.loaded, node)
		} else {
			sh.empty = append(sh.empty, node)
		}
	}
	search.CanonicalOrder(sh.loaded, sh.wloads)
	return sh, nil
}

// constrainedScratch holds one worker's reusable per-subset state: a
// HitInstance whose CSR arrays (and object counters, left balanced by
// the drivers) are recycled across every domain subset, plus the
// candidate scratch slices.
type constrainedScratch struct {
	inst  *search.HitInstance
	cands []int
	lists [][]search.Hit
	loads []int64
}

func (sh *constrainedShared) newScratch() *constrainedScratch {
	return &constrainedScratch{inst: search.NewHitInstance(sh.s, sh.pl.B())}
}

// subsetInstance re-initializes the scratch instance restricted to the
// given domains: the attacker fails min(k, nodes available) nodes inside
// them (smaller unions simply yield smaller attacks).
func (sh *constrainedShared) subsetInstance(domains []int, sc *constrainedScratch) *nodeInstance {
	allowedSet := sh.topo.FailedSet(domains)
	kEff := sh.k
	if c := allowedSet.Count(); c < kEff {
		kEff = c
	}
	sc.cands = sc.cands[:0]
	for _, node := range sh.loaded {
		if allowedSet.Get(node) {
			sc.cands = append(sc.cands, node)
		}
	}
	// Pad with allowed zero-load nodes so the attack set can always
	// have kEff members (kEff <= allowedSet.Count() guarantees enough
	// of them exist).
	for _, node := range sh.empty {
		if len(sc.cands) >= kEff {
			break
		}
		if allowedSet.Get(node) {
			sc.cands = append(sc.cands, node)
		}
	}
	sc.lists = sc.lists[:0]
	sc.loads = sc.loads[:0]
	for _, node := range sc.cands {
		sc.lists = append(sc.lists, sh.nodeHits[node])
		sc.loads = append(sc.loads, sh.wloads[node])
	}
	sc.inst.Reinit(kEff, sc.lists, sc.loads)
	sc.inst.SetWeights(sh.w)
	return &nodeInstance{HitInstance: sc.inst, candidates: sc.cands}
}

// constrainedRun is one constrained search in flight: the shared
// preprocessing, the one state budget every per-subset search draws
// from, the subset cursor, and the best attack so far. mu guards the
// cursor and best; only runs with more than one worker contend it.
type constrainedRun struct {
	sh    *constrainedShared
	bnb   bool // branch-and-bound per subset, else exhaustive enumeration
	bud   *search.Budget
	bound search.Bound
	mu    sync.Mutex
	next  []int // the next domain subset to hand out, in lex order
	more  bool  // next holds a subset not yet handed out
	best  DomainResult
}

// take copies the next domain subset into dst, or reports false once
// every subset is handed out or the budget is drained. A drained budget
// ends the whole search — the skipped subsets make the result inexact,
// and running their budget-free greedy seeding anyway would leave the
// budget unable to bound runtime.
func (cr *constrainedRun) take(dst []int) bool {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if !cr.more {
		return false
	}
	if cr.bud.Exhausted() {
		cr.best.Exact = false
		return false
	}
	copy(dst, cr.next)
	cr.more = combin.NextSubset(cr.sh.topo.NumDomains(), cr.next)
	return true
}

// work is the one subset loop every worker runs, with its own reusable
// scratch instance, until the cursor refuses.
func (cr *constrainedRun) work() {
	sc := cr.sh.newScratch()
	domains := make([]int, cr.sh.d)
	for cr.take(domains) {
		in := cr.sh.subsetInstance(domains, sc)
		if !cr.bnb {
			cr.merge(in.result(search.Exhaustive(in.HitInstance)))
			continue
		}
		// Seed greedy and lift the shared incumbent into the seed, so
		// the bound prunes across subsets (and workers) — budget isn't
		// wasted on dominated states.
		seed, _ := search.WarmSeed(in.HitInstance, nil, nil)
		cr.mu.Lock()
		global := cr.best.Failed
		cr.mu.Unlock()
		if global > seed.Failed {
			seed = search.Result{Failed: global}
		}
		cr.merge(in.result(search.BranchAndBound(in.HitInstance, seed, cr.bud, 1, cr.bound)))
	}
}

// merge folds one subset's result into the best attack.
func (cr *constrainedRun) merge(res Result) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if res.Failed > cr.best.Failed {
		cr.best.Failed = res.Failed
		cr.best.Nodes = res.Nodes
		cr.best.Domains = domainsOfNodes(cr.sh.topo, res.Nodes)
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
		sh:    sh,
		bnb:   bnb,
		bud:   search.NewBudget(opts.Budget),
		bound: opts.Bound,
		next:  make([]int, d),
		best:  DomainResult{Failed: -1, Exact: true},
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
// across goroutines sharing the incumbent and the budget.
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
