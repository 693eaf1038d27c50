package adversary

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/combin"
	"repro/internal/placement"
	"repro/internal/topology"
)

// referenceDomainWorst computes the worst d-domain failure by direct
// subset enumeration through an entirely independent code path (bitsets
// via topology.FailedSet, no incremental state).
func referenceDomainWorst(pl *placement.Placement, topo *topology.Topology, s, d int) int {
	worst := 0
	combin.ForEachSubset(topo.NumDomains(), d, func(domains []int) bool {
		if f := pl.FailedObjects(topo.FailedSet(domains), s); f > worst {
			worst = f
		}
		return true
	})
	return worst
}

// referenceConstrainedWorst computes the worst k-node failure spanning at
// most d domains by enumerating every k-subset of nodes and filtering.
func referenceConstrainedWorst(pl *placement.Placement, topo *topology.Topology, s, k, d int) int {
	worst := 0
	combin.ForEachSubset(pl.N, k, func(nodes []int) bool {
		if len(domainsOfNodes(topo, nodes)) > d {
			return true
		}
		failedSet := combin.NewBitsetFrom(pl.N, nodes)
		if f := pl.FailedObjects(failedSet, s); f > worst {
			worst = f
		}
		return true
	})
	return worst
}

func randomTopology(rng *rand.Rand, n int) *topology.Topology {
	racks := 2 + rng.Intn(n/2)
	if rng.Intn(2) == 0 {
		topo, err := topology.Uniform(n, racks)
		if err != nil {
			panic(err)
		}
		return topo
	}
	// Random (non-contiguous) assignment with every rack non-empty.
	domains := make([]topology.Domain, racks)
	for i := range domains {
		domains[i] = topology.Domain{Name: string(rune('a' + i)), Parent: -1}
	}
	perm := rng.Perm(n)
	for i, nd := range perm {
		di := i % racks
		if i >= racks {
			di = rng.Intn(racks)
		}
		domains[di].Nodes = append(domains[di].Nodes, nd)
	}
	topo, err := topology.New(n, domains, nil)
	if err != nil {
		panic(err)
	}
	return topo
}

// TestDomainEnginesCrossCheck is the three-engine agreement property on
// small instances: exhaustive equals the independent reference,
// branch-and-bound equals exhaustive exactly, and greedy never exceeds
// either while its witness reproduces its claimed damage.
func TestDomainEnginesCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.Intn(7)
		r := 2 + rng.Intn(3)
		b := 10 + rng.Intn(30)
		s := 1 + rng.Intn(r)
		pl := randomPlacement(rng, n, r, b)
		topo := randomTopology(rng, n)
		d := 1 + rng.Intn(topo.NumDomains()-1)

		want := referenceDomainWorst(pl, topo, s, d)
		ex, err := DomainExhaustiveAtWith(pl, topo, topology.Leaf, s, d, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if ex.Failed != want {
			t.Errorf("trial %d (n=%d r=%d b=%d s=%d D=%d d=%d): DomainExhaustive = %d, reference = %d",
				trial, n, r, b, s, topo.NumDomains(), d, ex.Failed, want)
		}
		if !ex.Exact {
			t.Error("DomainExhaustive must report Exact")
		}
		if len(ex.Domains) != d {
			t.Errorf("witness has %d domains, want %d", len(ex.Domains), d)
		}

		bnb, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if bnb.Failed != want {
			t.Errorf("trial %d: DomainWorstCase = %d, reference = %d", trial, bnb.Failed, want)
		}
		if !bnb.Exact {
			t.Error("unbounded DomainWorstCase must report Exact")
		}
		if bnb.Visited > ex.Visited {
			t.Errorf("B&B visited %d > exhaustive %d: pruning is not working", bnb.Visited, ex.Visited)
		}

		greedy, err := DomainGreedyAtWith(pl, topo, topology.Leaf, s, d, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Failed > want {
			t.Errorf("trial %d: greedy %d exceeds exact %d", trial, greedy.Failed, want)
		}
		// Every witness must reproduce its claimed damage.
		for _, res := range []DomainResult{ex, bnb, greedy} {
			if f := pl.FailedObjects(topo.FailedSet(res.Domains), s); f != res.Failed {
				t.Errorf("trial %d: witness %v reproduces %d failures, reported %d",
					trial, res.Domains, f, res.Failed)
			}
			if f := pl.FailedObjects(combin.NewBitsetFrom(n, res.Nodes), s); f != res.Failed {
				t.Errorf("trial %d: node witness reproduces %d failures, reported %d",
					trial, f, res.Failed)
			}
		}
	}
}

func TestConstrainedEnginesCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(4)
		r := 2 + rng.Intn(2)
		b := 10 + rng.Intn(20)
		s := 1 + rng.Intn(r)
		pl := randomPlacement(rng, n, r, b)
		racks := 3 + rng.Intn(2)
		topo, err := topology.Uniform(n, racks)
		if err != nil {
			t.Fatal(err)
		}
		d := 1 + rng.Intn(racks)
		k := 1 + rng.Intn(4)
		if k >= n {
			k = n - 1
		}

		want := referenceConstrainedWorst(pl, topo, s, k, d)
		ex, err := ConstrainedExhaustiveAtWith(pl, topo, topology.Leaf, s, k, d, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if ex.Failed != want {
			t.Errorf("trial %d (n=%d r=%d b=%d s=%d k=%d racks=%d d=%d): ConstrainedExhaustive = %d, reference = %d",
				trial, n, r, b, s, k, racks, d, ex.Failed, want)
		}
		bnb, err := ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, s, k, d, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if bnb.Failed != want {
			t.Errorf("trial %d: ConstrainedWorstCase = %d, reference = %d", trial, bnb.Failed, want)
		}
		if !bnb.Exact || !ex.Exact {
			t.Error("unbounded constrained searches must report Exact")
		}
		if len(ex.Domains) > d {
			t.Errorf("witness spans %d domains, budget %d", len(ex.Domains), d)
		}
		if f := pl.FailedObjects(combin.NewBitsetFrom(n, ex.Nodes), s); f != ex.Failed {
			t.Errorf("trial %d: witness reproduces %d failures, reported %d", trial, f, ex.Failed)
		}
	}
}

// TestConstrainedBracketsNodeAdversary: confining k failures to d domains
// can only reduce the damage relative to the unconstrained node
// adversary, and d = NumDomains lifts the constraint entirely.
func TestConstrainedBracketsNodeAdversary(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pl := randomPlacement(rng, 12, 3, 30)
	topo, err := topology.Uniform(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	const s, k = 2, 4
	free, err := WorstCaseWith(pl, s, k, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for d := 1; d <= topo.NumDomains(); d++ {
		res, err := ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, s, k, d, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed > free.Failed {
			t.Errorf("d=%d: constrained damage %d exceeds unconstrained %d", d, res.Failed, free.Failed)
		}
		if res.Failed < prev {
			t.Errorf("d=%d: damage %d decreased from %d; more domains must not hurt the attacker",
				d, res.Failed, prev)
		}
		prev = res.Failed
	}
	if prev != free.Failed {
		t.Errorf("d=D damage %d != unconstrained %d", prev, free.Failed)
	}
}

func TestDomainAdversaryValidation(t *testing.T) {
	pl := placement.NewPlacement(6, 2)
	if err := pl.Add([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Uniform(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DomainExhaustiveAtWith(pl, topo, topology.Leaf, 0, 1, SearchOpts{}); err == nil {
		t.Error("s = 0 accepted")
	}
	if _, err := DomainExhaustiveAtWith(pl, topo, topology.Leaf, 3, 1, SearchOpts{}); err == nil {
		t.Error("s > r accepted")
	}
	if _, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, 1, 0, SearchOpts{}); err == nil {
		t.Error("d = 0 accepted")
	}
	if _, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, 1, 4, SearchOpts{}); err == nil {
		t.Error("d > NumDomains accepted")
	}
	// d = NumDomains is the "everything fails" query and must work.
	all, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, 1, 3, SearchOpts{})
	if err != nil {
		t.Fatalf("d = NumDomains rejected: %v", err)
	}
	if all.Failed != pl.B() {
		t.Errorf("failing every domain failed %d of %d objects", all.Failed, pl.B())
	}
	other, err := topology.Uniform(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DomainGreedyAtWith(pl, other, topology.Leaf, 1, 1, SearchOpts{}); err == nil {
		t.Error("mismatched topology size accepted")
	}
	if _, err := ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, 1, 6, 2, SearchOpts{}); err == nil {
		t.Error("k >= n accepted")
	}
	if _, err := ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, 1, 2, 4, SearchOpts{}); err == nil {
		t.Error("d > NumDomains accepted")
	}
}

func TestDomainFewerLoadedDomainsThanD(t *testing.T) {
	// All objects on rack0's nodes {0,1}; d = 2 > 1 loaded domain.
	pl := placement.NewPlacement(9, 2)
	for i := 0; i < 3; i++ {
		if err := pl.Add([]int{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := topology.Uniform(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() (DomainResult, error){
		"exhaustive": func() (DomainResult, error) {
			return DomainExhaustiveAtWith(pl, topo, topology.Leaf, 2, 2, SearchOpts{})
		},
		"greedy": func() (DomainResult, error) { return DomainGreedyAtWith(pl, topo, topology.Leaf, 2, 2, SearchOpts{}) },
		"bnb": func() (DomainResult, error) {
			return DomainWorstCaseAtWith(pl, topo, topology.Leaf, 2, 2, SearchOpts{})
		},
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 3 {
			t.Errorf("%s: Failed = %d, want 3", name, res.Failed)
		}
		if len(res.Domains) != 2 {
			t.Errorf("%s: witness has %d domains, want 2", name, len(res.Domains))
		}
	}
}

// TestDomainBudgetDegradesGracefully mirrors the node-level budget test.
func TestDomainBudgetDegradesGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pl := randomPlacement(rng, 24, 3, 150)
	topo, err := topology.Uniform(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	full, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, 2, 4, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, 2, 4, SearchOpts{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Exact {
		t.Error("budget-limited domain search claims exactness")
	}
	if tiny.Failed > full.Failed {
		t.Errorf("budget result %d exceeds exact %d", tiny.Failed, full.Failed)
	}
	if tiny.Failed <= 0 {
		t.Error("budget result should still carry the greedy incumbent")
	}
}

// TestDomainVsNodeAdversary: failing d whole racks is at least as
// damaging as failing d arbitrary nodes, and no more damaging than
// failing the same number of nodes as the racks contain.
func TestDomainVsNodeAdversary(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	pl := randomPlacement(rng, 12, 3, 40)
	topo, err := topology.Uniform(12, 4) // 3 nodes per rack
	if err != nil {
		t.Fatal(err)
	}
	const s, d = 2, 2
	dom, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	nodesCovered := len(dom.Nodes)
	few, err := WorstCaseWith(pl, s, d, SearchOpts{}) // d free nodes
	if err != nil {
		t.Fatal(err)
	}
	many, err := WorstCaseWith(pl, s, nodesCovered, SearchOpts{}) // as many free nodes as the racks held
	if err != nil {
		t.Fatal(err)
	}
	if dom.Failed < few.Failed {
		t.Errorf("failing %d racks (%d nodes) does %d damage, less than %d free nodes doing %d",
			d, nodesCovered, dom.Failed, d, few.Failed)
	}
	if dom.Failed > many.Failed {
		t.Errorf("constrained rack attack %d beats free %d-node attack %d",
			dom.Failed, nodesCovered, many.Failed)
	}
}

// TestSharedTopologyConcurrentEngines runs the zone-level adversary, the
// spread pass and CheckCaps concurrently on one topology. Each validates
// the topology it is handed; validation indexes the tree once and then
// only reads it, so the race detector stays quiet and every concurrent
// result equals the serial one.
func TestSharedTopologyConcurrentEngines(t *testing.T) {
	topo, err := topology.UniformHierarchy(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl, _, _, err := placement.BuildDefaultCombo(12, 3, 2, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	caps := [][]int{{-1, -1}, {9, 9, 9, 9}}
	run := func() (DomainResult, []int, []int, error) {
		res, err := DomainWorstCaseAtWith(pl, topo, 0, 2, 1, SearchOpts{})
		if err != nil {
			return res, nil, nil, err
		}
		_, mapping, err := placement.SpreadAcrossDomainsWith(pl, topo, 2, 1, placement.SpreadOpts{})
		if err != nil {
			return res, nil, nil, err
		}
		assign, _, err := placement.CheckCaps(topo, pl.NodeLoads(), caps)
		return res, mapping, assign, err
	}
	wantRes, wantMap, wantAssign, err := run()
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, 3*rounds)
	for i := 0; i < rounds; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			res, err := DomainWorstCaseAtWith(pl, topo, 0, 2, 1, SearchOpts{})
			if err == nil && res.Failed != wantRes.Failed {
				err = fmt.Errorf("zone adversary failed %d, serial %d", res.Failed, wantRes.Failed)
			}
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, mapping, err := placement.SpreadAcrossDomainsWith(pl, topo, 2, 1, placement.SpreadOpts{})
			if err == nil && !slices.Equal(mapping, wantMap) {
				err = fmt.Errorf("spread mapped %v, serial %v", mapping, wantMap)
			}
			errs <- err
		}()
		go func() {
			defer wg.Done()
			assign, _, err := placement.CheckCaps(topo, pl.NodeLoads(), caps)
			if err == nil && !slices.Equal(assign, wantAssign) {
				err = fmt.Errorf("CheckCaps assigned %v, serial %v", assign, wantAssign)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
