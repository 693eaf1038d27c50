package adversary

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/topology"
)

// singletonRegionTree wraps a depth-2 zones→racks topology in a depth-3
// tree whose region level holds exactly one zone per region: region i =
// zone i, node for node. Attacks at any level of the wrapper must be
// indistinguishable from the depth-2 original.
func singletonRegionTree(t *testing.T, d2 *topology.Topology) *topology.Topology {
	t.Helper()
	zones, err := d2.NumDomainsAt(0)
	if err != nil {
		t.Fatal(err)
	}
	regions := make([]topology.Domain, zones)
	mid := make([]topology.Domain, zones)
	for i := 0; i < zones; i++ {
		regions[i] = topology.Domain{Name: d2.Tree[0][i].Name + "reg", Parent: -1}
		mid[i] = topology.Domain{Name: d2.Tree[0][i].Name, Parent: i}
	}
	leaves := make([]topology.Domain, d2.NumDomains())
	for i, d := range d2.Leaves() {
		leaves[i] = topology.Domain{Name: d.Name, Parent: d.Parent, Nodes: append([]int(nil), d.Nodes...)}
	}
	d3, err := topology.NewTree(d2.N, [][]topology.Domain{regions, mid, leaves})
	if err != nil {
		t.Fatal(err)
	}
	return d3
}

// TestSingletonLevelParity extends the node↔domain isomorphism to
// levels: on a depth-3 topology whose region level has one zone each,
// every engine must report byte-identical results — damage, witness,
// exactness AND visited states — at each of its three levels to the
// depth-2 equivalent (racks ≡ racks, zones ≡ zones, regions ≡ zones).
// The engines build their instances from Collapse(level) and share the
// search core, so any divergence means the collapse is lossy.
func TestSingletonLevelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 8; trial++ {
		n := 12 + rng.Intn(6)
		r := 2 + rng.Intn(2)
		b := 10 + rng.Intn(30)
		s := 1 + rng.Intn(r)
		pl := randomPlacement(rng, n, r, b)
		const zones, racksPerZone = 3, 2
		d2, err := topology.UniformHierarchy(n, zones, racksPerZone)
		if err != nil {
			t.Fatal(err)
		}
		d3 := singletonRegionTree(t, d2)

		dRack := 1 + rng.Intn(zones*racksPerZone-1)
		dZone := 1 + rng.Intn(zones)
		k := 1 + rng.Intn(n/3)
		type engine func(topo *topology.Topology, level, d int) (DomainResult, error)
		engines := map[string]engine{
			"exhaustive": func(topo *topology.Topology, level, d int) (DomainResult, error) {
				return DomainExhaustiveAtWith(pl, topo, level, s, d, SearchOpts{})
			},
			"greedy": func(topo *topology.Topology, level, d int) (DomainResult, error) {
				return DomainGreedyAtWith(pl, topo, level, s, d, SearchOpts{})
			},
			"worstcase": func(topo *topology.Topology, level, d int) (DomainResult, error) {
				return DomainWorstCaseAtWith(pl, topo, level, s, d, SearchOpts{})
			},
			"worstcase-par": func(topo *topology.Topology, level, d int) (DomainResult, error) {
				return DomainWorstCaseAtWith(pl, topo, level, s, d, SearchOpts{Workers: 4})
			},
			"constrained": func(topo *topology.Topology, level, d int) (DomainResult, error) {
				return ConstrainedWorstCaseAtWith(pl, topo, level, s, k, d, SearchOpts{})
			},
		}
		for name, run := range engines {
			cases := []struct {
				label          string
				lvl3, lvl2, dd int
			}{
				{"rack", 2, topology.Leaf, dRack},
				{"zone", 1, 0, dZone},
				{"region-as-zone", 0, 0, dZone},
			}
			for _, tc := range cases {
				a, err := run(d3, tc.lvl3, tc.dd)
				if err != nil {
					t.Fatal(err)
				}
				bres, err := run(d2, tc.lvl2, tc.dd)
				if err != nil {
					t.Fatal(err)
				}
				comparePair(t, trial, name, tc.label, a, bres, name != "worstcase-par")
			}
		}
	}
}

// comparePair asserts two DomainResults are identical; visited-state
// equality is skipped for the parallel engine, whose exploration order
// is schedule-dependent (damage and exactness still must match).
func comparePair(t *testing.T, trial int, engine, level string, a, b DomainResult, checkVisited bool) {
	t.Helper()
	if a.Failed != b.Failed || a.Exact != b.Exact {
		t.Errorf("trial %d %s @%s: depth-3 {failed %d exact %v} != depth-2 {failed %d exact %v}",
			trial, engine, level, a.Failed, a.Exact, b.Failed, b.Exact)
	}
	if checkVisited && a.Visited != b.Visited {
		t.Errorf("trial %d %s @%s: visited %d != %d — the collapsed searches diverged",
			trial, engine, level, a.Visited, b.Visited)
	}
	if checkVisited && !reflect.DeepEqual(a.Domains, b.Domains) {
		t.Errorf("trial %d %s @%s: witness domains %v != %v", trial, engine, level, a.Domains, b.Domains)
	}
	if checkVisited && !reflect.DeepEqual(a.Nodes, b.Nodes) {
		t.Errorf("trial %d %s @%s: witness nodes %v != %v", trial, engine, level, a.Nodes, b.Nodes)
	}
}

// TestLevelValidation pins the level plumbing's error handling and the
// plain-name ≡ leaf-level contract.
func TestLevelValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	pl := randomPlacement(rng, 12, 3, 20)
	topo, err := topology.UniformTree(12, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []int{2, 5, -2} {
		if _, err := DomainWorstCaseAtWith(pl, topo, level, 2, 1, SearchOpts{}); err == nil {
			t.Errorf("level %d accepted on a depth-2 topology", level)
		}
		if _, err := ConstrainedWorstCaseAtWith(pl, topo, level, 2, 2, 1, SearchOpts{}); err == nil {
			t.Errorf("constrained level %d accepted on a depth-2 topology", level)
		}
	}
	plain, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, 2, 2, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, 2, 2, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := DomainWorstCaseAtWith(pl, topo, 1, 2, 2, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Failed != leaf.Failed || plain.Failed != explicit.Failed {
		t.Errorf("plain %d, Leaf %d, level-1 %d must agree", plain.Failed, leaf.Failed, explicit.Failed)
	}
	// d is validated against the attacked level's domain count: level 0
	// has 2 zones, so d = 4 must be rejected there even though the leaf
	// level's 6 racks accept it.
	if _, err := DomainWorstCaseAtWith(pl, topo, 0, 2, 4, SearchOpts{}); err == nil {
		t.Error("d = 4 accepted at a 2-domain level")
	}
	// Attacking the top level ≡ attacking the same partition directly.
	top, err := DomainWorstCaseAtWith(pl, topo, 0, 2, 1, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := topo.Collapse(0)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := DomainWorstCaseAtWith(pl, flat, topology.Leaf, 2, 1, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if top.Failed != direct.Failed || top.Visited != direct.Visited {
		t.Errorf("level-0 attack {failed %d visited %d} != collapsed attack {failed %d visited %d}",
			top.Failed, top.Visited, direct.Failed, direct.Visited)
	}
}
