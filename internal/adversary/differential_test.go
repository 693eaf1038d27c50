package adversary

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/combin"
	"repro/internal/placement"
	"repro/internal/search"
	"repro/internal/topology"
)

// This file is the differential safety net for the unified search core:
// every exported engine against independent brute-force references,
// across node, domain, and constrained models, levels, weights, worker
// counts and budgets, plus the node↔domain isomorphism that pins one
// budget/visited-state semantics for both levels.

// testWorkerCounts returns the worker counts the engines are exercised
// with. CI sets ADVERSARY_TEST_WORKERS to force an oversubscribed count
// under the race detector.
func testWorkerCounts(t *testing.T) []int {
	counts := []int{1, 4}
	if v := os.Getenv("ADVERSARY_TEST_WORKERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("ADVERSARY_TEST_WORKERS = %q: want a positive integer", v)
		}
		counts = append(counts, n)
	}
	return counts
}

// referenceConstrainedWorstEff is an independent reference for the
// constrained engines' documented semantics: for every d-subset of
// domains the attacker fails min(k, nodes available) nodes inside it
// (referenceConstrainedWorst instead discards undersized domain unions
// outright, so it only agrees when every d-subset can host k nodes).
// The decomposition — per-subset node enumeration from scratch — shares
// no code with the engines' ordered incremental search.
func referenceConstrainedWorstEff(pl *placement.Placement, topo *topology.Topology, s, k, d int, w []int64) int {
	worst := 0
	combin.ForEachSubset(topo.NumDomains(), d, func(domains []int) bool {
		allowed := topo.FailedSet(domains).Members(nil)
		kEff := k
		if len(allowed) < kEff {
			kEff = len(allowed)
		}
		combin.ForEachSubset(len(allowed), kEff, func(idxs []int) bool {
			nodes := make([]int, len(idxs))
			for i, idx := range idxs {
				nodes[i] = allowed[idx]
			}
			if f := damageOf(pl, nodes, s, w); f > worst {
				worst = f
			}
			return true
		})
		return true
	})
	return worst
}

// randomTree groups a random rack layout (randomTopology) into two or
// three non-empty zones: a depth-2 tree to attack at both levels.
func randomTree(rng *rand.Rand, n int) *topology.Topology {
	racks := randomTopology(rng, n).Leaves()
	nz := 2 + rng.Intn(2)
	if nz > len(racks) {
		nz = len(racks)
	}
	zones := make([]topology.Domain, nz)
	for i := range zones {
		zones[i] = topology.Domain{Name: "z" + strconv.Itoa(i), Parent: -1}
	}
	leaves := make([]topology.Domain, len(racks))
	for i, r := range racks {
		z := i
		if i >= nz {
			z = rng.Intn(nz)
		}
		leaves[i] = topology.Domain{Name: r.Name, Parent: z, Nodes: append([]int(nil), r.Nodes...)}
	}
	topo, err := topology.NewTree(n, [][]topology.Domain{zones, leaves})
	if err != nil {
		panic(err)
	}
	return topo
}

// diffCase is one random instance of testDifferential: a
// placement on a depth-2 tree, the node budget k, a domain count d per
// attack level, and a skewed object-weight vector.
type diffCase struct {
	pl   *placement.Placement
	topo *topology.Topology
	s, k int
	d    map[int]int // attack level -> d
	w    []int64
}

// diffEngine is one of the package's exported engines, normalized to a
// DomainResult (node results leave Domains nil).
type diffEngine struct {
	name  string
	model string // "node", "domain" or "constrained"
	bnb   bool   // branch-and-bound: honors Budget and Workers
	exact bool   // exact whenever the budget is unlimited
	leaf  bool   // attacks the leaf level only
	run   func(c *diffCase, level int, o SearchOpts) (DomainResult, error)
}

func fromNode(r Result, err error) (DomainResult, error) {
	return DomainResult{Failed: r.Failed, Nodes: r.Nodes, Exact: r.Exact, Visited: r.Visited}, err
}

var diffEngines = []diffEngine{
	{"ExhaustiveWith", "node", false, true, true, func(c *diffCase, _ int, o SearchOpts) (DomainResult, error) {
		return fromNode(ExhaustiveWith(c.pl, c.s, c.k, o))
	}},
	{"GreedyWith", "node", false, false, true, func(c *diffCase, _ int, o SearchOpts) (DomainResult, error) {
		return fromNode(GreedyWith(c.pl, c.s, c.k, o))
	}},
	{"WorstCaseWith", "node", true, true, true, func(c *diffCase, _ int, o SearchOpts) (DomainResult, error) {
		return fromNode(WorstCaseWith(c.pl, c.s, c.k, o))
	}},
	{"DomainExhaustiveAtWith", "domain", false, true, false, func(c *diffCase, l int, o SearchOpts) (DomainResult, error) {
		return DomainExhaustiveAtWith(c.pl, c.topo, l, c.s, c.d[l], o)
	}},
	{"DomainGreedyAtWith", "domain", false, false, false, func(c *diffCase, l int, o SearchOpts) (DomainResult, error) {
		return DomainGreedyAtWith(c.pl, c.topo, l, c.s, c.d[l], o)
	}},
	{"DomainWorstCaseAtWith", "domain", true, true, false, func(c *diffCase, l int, o SearchOpts) (DomainResult, error) {
		return DomainWorstCaseAtWith(c.pl, c.topo, l, c.s, c.d[l], o)
	}},
	{"DomainWorstCaseWith", "domain", true, true, true, func(c *diffCase, _ int, o SearchOpts) (DomainResult, error) {
		return DomainWorstCaseWith(c.pl, c.topo, c.s, c.d[topology.Leaf], o)
	}},
	{"ConstrainedExhaustiveAtWith", "constrained", false, true, false, func(c *diffCase, l int, o SearchOpts) (DomainResult, error) {
		return ConstrainedExhaustiveAtWith(c.pl, c.topo, l, c.s, c.k, c.d[l], o)
	}},
	{"ConstrainedWorstCaseAtWith", "constrained", true, true, false, func(c *diffCase, l int, o SearchOpts) (DomainResult, error) {
		return ConstrainedWorstCaseAtWith(c.pl, c.topo, l, c.s, c.k, c.d[l], o)
	}},
}

// TestDifferentialNodeEngines: exhaustive, greedy and branch-and-bound
// node engines against brute force (see testDifferential).
func TestDifferentialNodeEngines(t *testing.T) { testDifferential(t, "node") }

// TestDifferentialDomainEngines: the domain engines at the leaf and top
// level of a random tree against brute force (see testDifferential).
func TestDifferentialDomainEngines(t *testing.T) { testDifferential(t, "domain") }

// TestDifferentialConstrainedEngines: constrained exhaustive ≡
// branch-and-bound ≡ brute force, witnesses within d domains (see
// testDifferential).
func TestDifferentialConstrainedEngines(t *testing.T) { testDifferential(t, "constrained") }

// testDifferential runs every exported engine of one attack model over
// engine × workers × level {leaf, top} × weights {unit, skewed} ×
// budget {unlimited, small} and checks each result against independent
// brute force:
//
//   - exact engines (exhaustive, unbudgeted branch-and-bound) equal the
//     brute-force optimum and report Exact (so, per model, exhaustive ≡
//     branch-and-bound ≡ brute force); greedy and budgeted runs never
//     exceed it, and a run claiming Exact equals it;
//   - every witness replays to its reported damage and has the model's
//     shape (k nodes, d domains, or ≤ k nodes inside ≤ d domains);
//   - worker-count invariance: exact branch-and-bound returns the same
//     damage at any worker count, and the node and domain drivers the
//     same witness; exhaustive and greedy ignore Budget and Workers;
//   - budget semantics: one pool shared across workers and across
//     constrained subsets, so no run visits more states than its budget,
//     and a one-worker run that stopped short spent exactly the budget.
func testDifferential(t *testing.T, model string) {
	const smallBudget = 4
	rng := rand.New(rand.NewSource(61))
	workerCounts := testWorkerCounts(t)
	levels := []int{topology.Leaf, 0}
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(4)
		r := 2 + rng.Intn(2)
		b := 8 + rng.Intn(14)
		c := &diffCase{
			pl:   randomPlacement(rng, n, r, b),
			topo: randomTree(rng, n),
			s:    1 + rng.Intn(r),
			k:    1 + rng.Intn(4),
			d:    map[int]int{},
			w:    make([]int64, b),
		}
		for obj := range c.w {
			c.w[obj] = 1 + int64(rng.Intn(3))
			if rng.Intn(4) == 0 {
				c.w[obj] = 9
			}
		}
		flats := map[int]*topology.Topology{}
		for _, level := range levels {
			flat, err := c.topo.Collapse(level)
			if err != nil {
				t.Fatal(err)
			}
			flats[level] = flat
			c.d[level] = 1 + rng.Intn(min(flat.NumDomains(), 3))
		}
		for _, w := range [][]int64{nil, c.w} {
			for _, level := range levels {
				flat, d := flats[level], c.d[level]
				if model == "node" && level != topology.Leaf {
					continue
				}
				var opt int
				switch model {
				case "node":
					opt = referenceWeightedWorst(c.pl, c.s, c.k, unitIfNil(w, b))
				case "domain":
					opt = referenceWeightedDomainWorst(c.pl, flat, c.s, d, unitIfNil(w, b))
				case "constrained":
					opt = referenceConstrainedWorstEff(c.pl, flat, c.s, c.k, d, w)
				}
				for _, e := range diffEngines {
					if e.model != model || (e.leaf && level != topology.Leaf) {
						continue
					}
					var base DomainResult // workers 1, unlimited budget
					for _, workers := range workerCounts {
						for _, budget := range []int64{0, smallBudget} {
							label := fmt.Sprintf("trial %d %s level=%d weighted=%v workers=%d budget=%d",
								trial, e.name, level, w != nil, workers, budget)
							res, err := e.run(c, level, SearchOpts{Budget: budget, Workers: workers, ObjWeights: w})
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							checkDiffWitness(t, label, e.model, c, flat, d, w, res)
							if res.Failed > opt || (res.Exact && res.Failed != opt) {
								t.Errorf("%s: {failed %d, exact %v}, brute force %d", label, res.Failed, res.Exact, opt)
							}
							if e.exact && budget == 0 && (!res.Exact || res.Failed != opt) {
								t.Errorf("%s: {failed %d, exact %v}, want exact %d", label, res.Failed, res.Exact, opt)
							}
							if workers == 1 && budget == 0 {
								base = res
								continue
							}
							switch {
							case !e.bnb:
								if !reflect.DeepEqual(res, base) {
									t.Errorf("%s: %+v, want the unoptioned %+v", label, res, base)
								}
							case budget == 0:
								if e.model != "constrained" && !reflect.DeepEqual(res.Nodes, base.Nodes) {
									t.Errorf("%s: witness %v, serial %v", label, res.Nodes, base.Nodes)
								}
							default:
								if res.Visited > budget {
									t.Errorf("%s: visited %d states, budget %d", label, res.Visited, budget)
								}
								if workers == 1 && !res.Exact && res.Visited != budget {
									t.Errorf("%s: stopped short after %d states, budget %d", label, res.Visited, budget)
								}
							}
						}
					}
				}
			}
		}
	}
}

// unitIfNil returns w, or all-ones weights for b objects when w is nil.
func unitIfNil(w []int64, b int) []int64 {
	if w != nil {
		return w
	}
	ones := make([]int64, b)
	for i := range ones {
		ones[i] = 1
	}
	return ones
}

// checkDiffWitness checks that a result's witness has its model's shape
// and replays to the reported damage on the attack level's flat view.
func checkDiffWitness(t *testing.T, label, model string, c *diffCase, flat *topology.Topology, d int, w []int64, res DomainResult) {
	t.Helper()
	nodes := res.Nodes
	switch model {
	case "node":
		if len(nodes) != c.k {
			t.Errorf("%s: witness %v is not a %d-node attack", label, nodes, c.k)
		}
	case "domain":
		if len(res.Domains) != d {
			t.Errorf("%s: witness %v is not a %d-domain attack", label, res.Domains, d)
		}
		nodes = flat.FailedSet(res.Domains).Members(nil)
		if !reflect.DeepEqual(nodes, res.Nodes) {
			t.Errorf("%s: witness nodes %v, domains %v cover %v", label, res.Nodes, res.Domains, nodes)
		}
	case "constrained":
		spanned := domainsOfNodes(flat, nodes)
		if len(nodes) == 0 || len(nodes) > c.k || len(spanned) > d {
			t.Errorf("%s: witness %v (domains %v) is not ≤%d nodes in ≤%d domains", label, nodes, spanned, c.k, d)
		}
		if !reflect.DeepEqual(spanned, res.Domains) {
			t.Errorf("%s: witness domains %v, nodes span %v", label, res.Domains, spanned)
		}
	}
	if got := damageOf(c.pl, nodes, c.s, w); got != res.Failed {
		t.Errorf("%s: witness replays to %d, reported %d", label, got, res.Failed)
	}
}

// TestDifferentialBoundAblation pins the -bound ablation switch across
// all three attack modes: the gain-vector bounds return exactly the
// static bound's result — damage (== the exhaustive reference), witness,
// exactness — while never visiting more states. Witness equality holds
// because both modes walk the same tree with the same incumbent
// evolution; residual only removes subtrees that cannot improve it.
func TestDifferentialBoundAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	staticOpts := func() SearchOpts { return SearchOpts{Bound: search.BoundStatic} }
	residOpts := func() SearchOpts { return SearchOpts{} } // zero value = residual
	var tighter int
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(6)
		r := 2 + rng.Intn(3)
		b := 10 + rng.Intn(30)
		s := 1 + rng.Intn(r)
		k := 1 + rng.Intn(n-2)
		pl := randomPlacement(rng, n, r, b)
		topo := randomTopology(rng, n)
		d := 1 + rng.Intn(topo.NumDomains())
		kc := 1 + rng.Intn(4)

		type run struct {
			name   string
			exact  int
			search func(SearchOpts) (int, []int, bool, int64)
		}
		nodeRef, err := ExhaustiveWith(pl, s, k, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		domRef, err := DomainExhaustiveAtWith(pl, topo, topology.Leaf, s, d, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		conRef, err := ConstrainedExhaustiveAtWith(pl, topo, topology.Leaf, s, kc, d, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		asNode := func(res Result, err error) (int, []int, bool, int64) {
			if err != nil {
				t.Fatal(err)
			}
			return res.Failed, res.Nodes, res.Exact, res.Visited
		}
		asDom := func(res DomainResult, err error) (int, []int, bool, int64) {
			if err != nil {
				t.Fatal(err)
			}
			return res.Failed, res.Nodes, res.Exact, res.Visited
		}
		runs := []run{
			{"node", nodeRef.Failed,
				func(o SearchOpts) (int, []int, bool, int64) { return asNode(WorstCaseWith(pl, s, k, o)) }},
			{"domain", domRef.Failed,
				func(o SearchOpts) (int, []int, bool, int64) {
					return asDom(DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, o))
				}},
			{"constrained", conRef.Failed,
				func(o SearchOpts) (int, []int, bool, int64) {
					return asDom(ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, s, kc, d, o))
				}},
		}
		for _, r := range runs {
			sFailed, sNodes, sExact, sVisited := r.search(staticOpts())
			rFailed, rNodes, rExact, rVisited := r.search(residOpts())
			if sFailed != r.exact || rFailed != r.exact {
				t.Errorf("trial %d %s: damage static=%d residual=%d exhaustive=%d",
					trial, r.name, sFailed, rFailed, r.exact)
			}
			if !sExact || !rExact {
				t.Errorf("trial %d %s: unbounded searches not exact (static %v, residual %v)",
					trial, r.name, sExact, rExact)
			}
			if !reflect.DeepEqual(sNodes, rNodes) {
				t.Errorf("trial %d %s: witness diverged: static %v, residual %v",
					trial, r.name, sNodes, rNodes)
			}
			if rVisited > sVisited {
				t.Errorf("trial %d %s: residual visited %d > static %d",
					trial, r.name, rVisited, sVisited)
			}
			if rVisited < sVisited {
				tighter++
			}
		}
	}
	if tighter == 0 {
		t.Error("residual bound never pruned deeper than static on any engine — the gain-vector bounds are likely broken")
	}
}

// TestNodeDomainIsomorphism pins the unified core: on a topology of
// singleton domains (domain i = {node i}), the node-level and
// domain-level engines run the very same search, so the full results —
// damage, witness node set, exactness AND visited-state counts — must be
// byte-identical, for the exhaustive, greedy, and branch-and-bound
// drivers alike.
func TestNodeDomainIsomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(5)
		r := 2 + rng.Intn(3)
		b := 10 + rng.Intn(30)
		s := 1 + rng.Intn(r)
		k := 1 + rng.Intn(n-2)
		pl := randomPlacement(rng, n, r, b)
		topo, err := topology.Uniform(n, n) // singleton domains
		if err != nil {
			t.Fatal(err)
		}

		type pair struct {
			node func() (Result, error)
			dom  func() (DomainResult, error)
		}
		for name, p := range map[string]pair{
			"exhaustive": {
				node: func() (Result, error) { return ExhaustiveWith(pl, s, k, SearchOpts{}) },
				dom: func() (DomainResult, error) {
					return DomainExhaustiveAtWith(pl, topo, topology.Leaf, s, k, SearchOpts{})
				},
			},
			"greedy": {
				node: func() (Result, error) { return GreedyWith(pl, s, k, SearchOpts{}) },
				dom:  func() (DomainResult, error) { return DomainGreedyAtWith(pl, topo, topology.Leaf, s, k, SearchOpts{}) },
			},
			"worstcase": {
				node: func() (Result, error) { return WorstCaseWith(pl, s, k, SearchOpts{}) },
				dom: func() (DomainResult, error) {
					return DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, k, SearchOpts{})
				},
			},
		} {
			nres, err := p.node()
			if err != nil {
				t.Fatal(err)
			}
			dres, err := p.dom()
			if err != nil {
				t.Fatal(err)
			}
			if nres.Failed != dres.Failed || nres.Exact != dres.Exact || nres.Visited != dres.Visited {
				t.Errorf("trial %d %s: node {failed %d exact %v visited %d} != domain {failed %d exact %v visited %d}",
					trial, name, nres.Failed, nres.Exact, nres.Visited,
					dres.Failed, dres.Exact, dres.Visited)
			}
			if !reflect.DeepEqual(nres.Nodes, dres.Nodes) {
				t.Errorf("trial %d %s: node witness %v != domain witness %v",
					trial, name, nres.Nodes, dres.Nodes)
			}
		}
	}
}

// TestBudgetFrontierParity is the regression test for the budget
// accounting the unified core fixed: one budget semantics (each
// branch-and-bound state consumes one unit; greedy seeding is free)
// shared by the node- and domain-level engines. On singleton domains a
// given budget must exhaust at exactly the same frontier for both —
// same incumbent damage, same visited count (== the budget), and
// Exact = false on both sides.
func TestBudgetFrontierParity(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	pl := randomPlacement(rng, 20, 3, 150)
	topo, err := topology.Uniform(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	const s, k = 2, 5
	full, err := WorstCaseWith(pl, s, k, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Visited < 100 {
		t.Fatalf("instance too small to pin a frontier: %d states", full.Visited)
	}
	for _, budget := range []int64{1, 10, full.Visited / 2} {
		nres, err := WorstCaseWith(pl, s, k, SearchOpts{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		dres, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, k, SearchOpts{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if nres.Exact || dres.Exact {
			t.Errorf("budget %d: exactness claimed (node %v, domain %v)", budget, nres.Exact, dres.Exact)
		}
		if nres.Visited != budget || dres.Visited != budget {
			t.Errorf("budget %d: visited node %d, domain %d — one state per budget unit on both levels",
				budget, nres.Visited, dres.Visited)
		}
		if nres.Failed != dres.Failed {
			t.Errorf("budget %d: node incumbent %d != domain incumbent %d — frontiers diverged",
				budget, nres.Failed, dres.Failed)
		}
	}
	// And the unbudgeted runs agree state-for-state.
	dfull, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, k, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if dfull.Visited != full.Visited || dfull.Failed != full.Failed {
		t.Errorf("exact runs diverge: node {failed %d, visited %d}, domain {failed %d, visited %d}",
			full.Failed, full.Visited, dfull.Failed, dfull.Visited)
	}
}
