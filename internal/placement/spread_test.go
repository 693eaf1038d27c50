// Spread tests live in the external test package so they can exercise
// the never-worse guarantee against the real domain adversary (package
// adversary imports placement, so the internal package cannot).
package placement_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/placement"
	"repro/internal/topology"
)

// worstDomainDamage is the never-worse oracle: the exact worst
// d-domain damage (lost weight under a non-nil w) at the given level,
// computed by the real domain adversary's exhaustive engine.
func worstDomainDamage(pl *placement.Placement, topo *topology.Topology, level, s, d int, w []int64) (int, error) {
	res, err := adversary.DomainExhaustiveAtWith(pl, topo, level, s, d, adversary.SearchOpts{ObjWeights: w})
	return res.Failed, err
}

func randomSpreadPlacement(rng *rand.Rand, n, r, b int) *placement.Placement {
	pl := placement.NewPlacement(n, r)
	nodes := make([]int, r)
	for i := 0; i < b; i++ {
		perm := rng.Perm(n)
		copy(nodes, perm[:r])
		if err := pl.Add(nodes); err != nil {
			panic(err)
		}
	}
	return pl
}

func TestRelabel(t *testing.T) {
	pl := placement.NewPlacement(4, 2)
	for _, obj := range [][]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := pl.Add(obj); err != nil {
			t.Fatal(err)
		}
	}
	out, err := placement.Relabel(pl, []int{3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{2, 3}, {1, 2}, {0, 1}}
	for i, w := range want {
		got := out.ReplicaNodes(i)
		if len(got) != 2 || got[0] != w[0] || got[1] != w[1] {
			t.Errorf("object %d relabeled to %v, want %v", i, got, w)
		}
	}
	if _, err := placement.Relabel(pl, []int{0, 1, 2}); err == nil {
		t.Error("short mapping accepted")
	}
	if _, err := placement.Relabel(pl, []int{0, 1, 2, 2}); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := placement.Relabel(pl, []int{0, 1, 2, 4}); err == nil {
		t.Error("out-of-range mapping accepted")
	}
}

func TestDomainSpreadStats(t *testing.T) {
	pl := placement.NewPlacement(6, 3)
	// One object entirely inside rack0, one spread over all three racks.
	for _, obj := range [][]int{{0, 1, 2}, {0, 3, 5}} {
		if err := pl.Add(obj); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := topology.New(6, []topology.Domain{
		{Name: "a", Parent: -1, Nodes: []int{0, 1, 2}},
		{Name: "b", Parent: -1, Nodes: []int{3, 4}},
		{Name: "c", Parent: -1, Nodes: []int{5}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := placement.DomainSpread(pl, topo)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MinDomains != 1 || stats.MaxDomains != 3 {
		t.Errorf("spread = [%d, %d], want [1, 3]", stats.MinDomains, stats.MaxDomains)
	}
	if stats.Histogram[1] != 1 || stats.Histogram[3] != 1 {
		t.Errorf("histogram = %v", stats.Histogram)
	}
}

// TestSpreadPerfectOnBlockAlignedRacks: when objects exactly coincide
// with racks, the oblivious placement loses an object per rack failure
// while the spread placement survives every single-rack failure.
func TestSpreadPerfectOnBlockAlignedRacks(t *testing.T) {
	pl := placement.NewPlacement(9, 3)
	for _, obj := range [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}} {
		if err := pl.Add(obj); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := topology.Uniform(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	const s, d = 2, 1
	before, err := worstDomainDamage(pl, topo, topology.Leaf, s, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if before != 1 {
		t.Fatalf("oblivious damage = %d, want 1 (one object per rack)", before)
	}
	aware, mapping, err := placement.SpreadAcrossDomains(pl, topo, s, d)
	if err != nil {
		t.Fatal(err)
	}
	after, err := worstDomainDamage(aware, topo, topology.Leaf, s, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after != 0 {
		t.Errorf("spread damage = %d, want 0 (each object across 3 racks); mapping %v", after, mapping)
	}
	stats, err := placement.DomainSpread(aware, topo)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MinDomains != 3 {
		t.Errorf("spread MinDomains = %d, want 3", stats.MinDomains)
	}
}

// TestSpreadNeverWorseProperty is the PR's core guarantee: under the
// exact domain adversary, the spread placement never does worse than the
// domain-oblivious one — on random placements, random topologies, and
// across s and d.
func TestSpreadNeverWorseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(8)
		r := 2 + rng.Intn(3)
		b := 10 + rng.Intn(30)
		pl := randomSpreadPlacement(rng, n, r, b)
		racks := 2 + rng.Intn(4)
		if racks > n {
			racks = n
		}
		topo, err := topology.Uniform(n, racks)
		if err != nil {
			t.Fatal(err)
		}
		s := 1 + rng.Intn(r)
		d := 1 + rng.Intn(racks)
		aware, mapping, err := placement.SpreadAcrossDomains(pl, topo, s, d)
		if err != nil {
			t.Fatal(err)
		}
		// The mapping must be a permutation (Relabel validates), and the
		// relabeled placement must still be structurally sound.
		if err := aware.Validate(); err != nil {
			t.Fatalf("trial %d: spread placement invalid: %v", trial, err)
		}
		if len(mapping) != n {
			t.Fatalf("trial %d: mapping has %d entries, want %d", trial, len(mapping), n)
		}
		before, err := worstDomainDamage(pl, topo, topology.Leaf, s, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		after, err := worstDomainDamage(aware, topo, topology.Leaf, s, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if after > before {
			t.Errorf("trial %d (n=%d r=%d b=%d s=%d racks=%d d=%d): spread damage %d > oblivious %d",
				trial, n, r, b, s, racks, d, after, before)
		}
	}
}

// TestSpreadNeverWorseUnderAdversaryEngine re-verifies the guarantee
// with the independent branch-and-bound domain adversary, on Combo
// placements (the configuration the PR ships): domain-aware Combo's
// availability is >= domain-oblivious Combo's for every scenario.
func TestSpreadNeverWorseUnderAdversaryEngine(t *testing.T) {
	for _, tc := range []struct {
		n, r, s, k, b, racks, d int
	}{
		{9, 3, 2, 3, 12, 3, 1},
		{13, 3, 2, 3, 26, 4, 1},
		{13, 3, 2, 4, 26, 4, 2},
		{13, 3, 3, 4, 26, 4, 2},
	} {
		units, err := placement.DefaultUnits(tc.n, tc.r, tc.s, true)
		if err != nil {
			t.Fatal(err)
		}
		spec, _, err := placement.OptimizeCombo(tc.b, tc.k, tc.s, units)
		if err != nil {
			t.Fatal(err)
		}
		combo, err := placement.BuildCombo(tc.n, tc.r, spec, tc.b, placement.SimpleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		topo, err := topology.Uniform(tc.n, tc.racks)
		if err != nil {
			t.Fatal(err)
		}
		aware, _, err := placement.SpreadAcrossDomains(combo, topo, tc.s, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		obliv, err := adversary.DomainWorstCaseAtWith(combo, topo, topology.Leaf, tc.s, tc.d, adversary.SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		awareRes, err := adversary.DomainWorstCaseAtWith(aware, topo, topology.Leaf, tc.s, tc.d, adversary.SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if awareRes.Avail(tc.b) < obliv.Avail(tc.b) {
			t.Errorf("%+v: aware Avail %d < oblivious %d", tc, awareRes.Avail(tc.b), obliv.Avail(tc.b))
		}
		// Spreading is label-only: the node-level worst case is unchanged.
		nodeObliv, err := adversary.WorstCaseWith(combo, tc.s, tc.k, adversary.SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		nodeAware, err := adversary.WorstCaseWith(aware, tc.s, tc.k, adversary.SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if nodeObliv.Failed != nodeAware.Failed {
			t.Errorf("%+v: node-level damage changed by relabeling: %d vs %d",
				tc, nodeObliv.Failed, nodeAware.Failed)
		}
	}
}

func TestSpreadValidation(t *testing.T) {
	pl := placement.NewPlacement(6, 2)
	if err := pl.Add([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Uniform(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := placement.SpreadAcrossDomains(pl, topo, 0, 1); err == nil {
		t.Error("s = 0 accepted")
	}
	if _, _, err := placement.SpreadAcrossDomains(pl, topo, 1, 0); err == nil {
		t.Error("d = 0 accepted")
	}
	if _, _, err := placement.SpreadAcrossDomains(pl, topo, 1, 4); err == nil {
		t.Error("d > domains accepted")
	}
	other, err := topology.Uniform(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := placement.SpreadAcrossDomains(pl, other, 1, 1); err == nil {
		t.Error("mismatched topology accepted")
	}
}

// TestSpreadHierarchicalNeverWorseEveryLevel is the tentpole guarantee
// on trees: the spread placement never does worse than the oblivious
// one under the exact adversary at ANY level of the hierarchy.
func TestSpreadHierarchicalNeverWorseEveryLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 12; trial++ {
		n := 12 + rng.Intn(8)
		r := 2 + rng.Intn(2)
		b := 10 + rng.Intn(25)
		s := 1 + rng.Intn(r)
		pl := randomSpreadPlacement(rng, n, r, b)
		var topo *topology.Topology
		var err error
		if trial%2 == 0 {
			topo, err = topology.UniformTree(n, 2, 2, 2)
		} else {
			topo, err = topology.UniformTree(n, 2, 3)
		}
		if err != nil {
			t.Fatal(err)
		}
		d := 1 + rng.Intn(2)
		aware, _, err := placement.SpreadAcrossDomains(pl, topo, s, d)
		if err != nil {
			t.Fatal(err)
		}
		for level := 0; level < topo.Levels(); level++ {
			nd, err := topo.NumDomainsAt(level)
			if err != nil {
				t.Fatal(err)
			}
			dl := d
			if dl > nd {
				dl = nd
			}
			before, err := worstDomainDamage(pl, topo, level, s, dl, nil)
			if err != nil {
				t.Fatal(err)
			}
			after, err := worstDomainDamage(aware, topo, level, s, dl, nil)
			if err != nil {
				t.Fatal(err)
			}
			if after > before {
				t.Errorf("trial %d (n=%d r=%d b=%d s=%d d=%d) level %d: spread damage %d > oblivious %d",
					trial, n, r, b, s, dl, level, after, before)
			}
		}
	}
}

// TestSpreadHierarchicalSeparatesZones: rack-aligned objects on a
// zones→racks tree can be relabeled to survive any single rack AND any
// single zone failure; the hierarchical pass must find such a mapping
// (top level first, then within each zone).
func TestSpreadHierarchicalSeparatesZones(t *testing.T) {
	pl := placement.NewPlacement(8, 2)
	for _, obj := range [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}} {
		if err := pl.Add(obj); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := topology.UniformTree(8, 2, 2) // 2 zones x 2 racks x 2 nodes
	if err != nil {
		t.Fatal(err)
	}
	const s, d = 2, 1
	beforeZone, err := worstDomainDamage(pl, topo, 0, s, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if beforeZone != 2 {
		t.Fatalf("oblivious zone damage = %d, want 2 (two objects per zone)", beforeZone)
	}
	aware, _, err := placement.SpreadAcrossDomains(pl, topo, s, d)
	if err != nil {
		t.Fatal(err)
	}
	afterRack, err := worstDomainDamage(aware, topo, topology.Leaf, s, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	afterZone, err := worstDomainDamage(aware, topo, 0, s, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if afterRack != 0 || afterZone != 0 {
		t.Errorf("spread damage rack=%d zone=%d, want 0 and 0 (replicas split across zones)", afterRack, afterZone)
	}
}

// TestSpreadCapsNeverExceeded is the capacity satellite's contract: the
// relabeled placement never exceeds a leaf domain's replica cap, the
// never-worse selection still runs among cap-feasible candidates, and
// infeasible caps error out rather than silently overflowing.
func TestSpreadCapsNeverExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(8)
		r := 2 + rng.Intn(2)
		b := 8 + rng.Intn(16)
		s := 1 + rng.Intn(r)
		pl := randomSpreadPlacement(rng, n, r, b)
		racks := 2 + rng.Intn(3)
		topo, err := topology.Uniform(n, racks)
		if err != nil {
			t.Fatal(err)
		}
		// A loose-but-binding cap: a bit above a perfectly balanced
		// share, sometimes unlimited on one domain.
		caps := make([]int, racks)
		for i := range caps {
			caps[i] = (r*b+racks-1)/racks + 1 + rng.Intn(2)
		}
		if rng.Intn(3) == 0 {
			caps[rng.Intn(racks)] = -1
		}
		aware, mapping, err := placement.SpreadAcrossDomainsWith(pl, topo, s, 1, placement.SpreadOpts{Caps: caps})
		if err != nil {
			// Feasibility is not guaranteed for every draw; an error is
			// acceptable, silently exceeding a cap is not.
			continue
		}
		if len(mapping) != n {
			t.Fatalf("trial %d: mapping has %d entries, want %d", trial, len(mapping), n)
		}
		_, loads := placement.DomainHits(aware, topo)
		for di, load := range loads {
			if caps[di] >= 0 && load > int64(caps[di]) {
				t.Errorf("trial %d: domain %d holds %d replicas, cap %d", trial, di, load, caps[di])
			}
		}
	}
	// Impossible caps must error.
	pl := randomSpreadPlacement(rng, 8, 2, 10)
	topo, err := topology.Uniform(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := placement.SpreadAcrossDomainsWith(pl, topo, 1, 1, placement.SpreadOpts{Caps: []int{0, 0, 0, 0}}); err == nil {
		t.Error("all-zero caps accepted for a placement with replicas")
	}
	if _, _, err := placement.SpreadAcrossDomainsWith(pl, topo, 1, 1, placement.SpreadOpts{Caps: []int{5, 5}}); err == nil {
		t.Error("cap vector shorter than the domain count accepted")
	}
}

// TestSpreadCapsRedistribute: when the oblivious layout overloads one
// rack beyond its cap, the capped spread must move replicas off it —
// identity is excluded and a feasible candidate found.
func TestSpreadCapsRedistribute(t *testing.T) {
	// Every object touches node 0 or 1: rack0 = {0, 1} holds 4 of the 8
	// replicas, double its cap.
	pl := placement.NewPlacement(8, 2)
	for _, obj := range [][]int{{0, 2}, {0, 4}, {1, 6}, {1, 3}} {
		if err := pl.Add(obj); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := topology.Uniform(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	caps := []int{2, 2, 2, 2}
	aware, _, err := placement.SpreadAcrossDomainsWith(pl, topo, 2, 1, placement.SpreadOpts{Caps: caps})
	if err != nil {
		t.Fatal(err)
	}
	_, loads := placement.DomainHits(aware, topo)
	for di, load := range loads {
		if load > 2 {
			t.Errorf("domain %d holds %d replicas, cap 2", di, load)
		}
	}
}

// TestSpreadUnlimitedCapsStillSpread is the regression test for the
// unlimited-cap sentinel: all-negative caps mean "no cap", so the
// hierarchical candidates must still compete (the sentinel sum must not
// overflow into a negative subtree budget) and reach the same
// zone-separating layout the uncapped pass finds.
func TestSpreadUnlimitedCapsStillSpread(t *testing.T) {
	pl := placement.NewPlacement(8, 2)
	for _, obj := range [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}} {
		if err := pl.Add(obj); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := topology.UniformTree(8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	caps := []int{-1, -1, -1, -1}
	aware, _, err := placement.SpreadAcrossDomainsWith(pl, topo, 2, 1, placement.SpreadOpts{Caps: caps})
	if err != nil {
		t.Fatal(err)
	}
	afterZone, err := worstDomainDamage(aware, topo, 0, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if afterZone != 0 {
		t.Errorf("unlimited caps: zone damage = %d, want 0 (hierarchical candidates must compete)", afterZone)
	}
	// Mixed unlimited + finite caps under one parent must not disable
	// the finite ones either.
	mixed := []int{-1, 2, -1, 2}
	aware, _, err = placement.SpreadAcrossDomainsWith(pl, topo, 2, 1, placement.SpreadOpts{Caps: mixed})
	if err != nil {
		t.Fatal(err)
	}
	_, loads := placement.DomainHits(aware, topo)
	for di, load := range loads {
		if mixed[di] >= 0 && load > int64(mixed[di]) {
			t.Errorf("domain %d holds %d replicas, cap %d", di, load, mixed[di])
		}
	}
}

// TestSpreadSessionMatchesOneShotEvaluator pins the candidate-scoring
// rewrite: scoring through the reused warm-started scorer must pick
// the same mapping a per-candidate one-shot exhaustive evaluation
// would (the scorer is exact, so the damage vectors are identical),
// and the telemetry must account for every evaluation.
func TestSpreadSessionMatchesOneShotEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 4; trial++ {
		pl := randomSpreadPlacement(rng, 12, 3, 20+rng.Intn(20))
		topo, err := topology.UniformHierarchy(12, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		var tel placement.SpreadTelemetry
		spread, mapping, err := placement.SpreadAcrossDomainsWith(pl, topo, 2, 2, placement.SpreadOpts{Telemetry: &tel})
		if err != nil {
			t.Fatal(err)
		}
		if tel.Evals == 0 || tel.Rebuilds == 0 {
			t.Fatalf("telemetry recorded no scoring work: %+v", tel)
		}
		if tel.MemoHits+tel.Rebuilds != tel.Evals {
			t.Fatalf("telemetry does not balance: %+v", tel)
		}
		// The winner's damage at every level equals the one-shot
		// evaluator on the same relabeled placement.
		for _, lv := range []struct{ level, d int }{{topology.Leaf, 2}, {0, 2}} {
			want, err := worstDomainDamage(spread, topo, lv.level, 2, lv.d, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := adversary.DomainWorstCaseAtWith(spread, topo, lv.level, 2, lv.d, adversary.SearchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != want {
				t.Fatalf("level %d: engine %d != evaluator %d on spread result (mapping %v)",
					lv.level, res.Failed, want, mapping)
			}
		}
	}
}

// TestSpreadLiteralTopology pins that the spread pass validates the
// topology it is handed. Topology exports N and Tree, so a caller can
// build one as a literal, whose node → domain index nothing has derived
// yet: DomainSpread, SpreadAcrossDomainsWith (with and without caps)
// and CheckCaps must give on such a literal what they give on its
// NewTree-built twin, and return an error, not panic, on a malformed
// one.
func TestSpreadLiteralTopology(t *testing.T) {
	racks := func(last []int) *topology.Topology {
		return &topology.Topology{N: 6, Tree: [][]topology.Domain{{
			{Name: "rack0", Parent: -1, Nodes: []int{0, 1, 2}},
			{Name: "rack1", Parent: -1, Nodes: last},
		}}}
	}
	built, err := topology.NewTree(6, racks([]int{3, 4, 5}).Tree)
	if err != nil {
		t.Fatal(err)
	}
	pl := placement.NewPlacement(6, 2)
	for _, obj := range [][]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {0, 3}} {
		if err := pl.Add(obj); err != nil {
			t.Fatal(err)
		}
	}
	want, err := placement.DomainSpread(pl, built)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := placement.DomainSpread(pl, racks([]int{3, 4, 5})); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("DomainSpread on the literal: %+v, %v; on NewTree's: %+v", got, err, want)
	}
	for _, opts := range []placement.SpreadOpts{{}, {Caps: []int{6, 6}}} {
		_, wantMap, err := placement.SpreadAcrossDomainsWith(pl, built, 2, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, got, err := placement.SpreadAcrossDomainsWith(pl, racks([]int{3, 4, 5}), 2, 1, opts); err != nil || !slices.Equal(got, wantMap) {
			t.Errorf("caps %v: spread on the literal mapped %v (%v); on NewTree's %v", opts.Caps, got, err, wantMap)
		}
	}
	caps := [][]int{{6, 6}}
	wantAssign, _, err := placement.CheckCaps(built, pl.NodeLoads(), caps)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := placement.CheckCaps(racks([]int{3, 4, 5}), pl.NodeLoads(), caps); err != nil || !slices.Equal(got, wantAssign) {
		t.Errorf("CheckCaps on the literal: %v (%v); on NewTree's: %v", got, err, wantAssign)
	}

	// Node 5 in no rack.
	if _, err := placement.DomainSpread(pl, racks([]int{3, 4})); err == nil {
		t.Error("DomainSpread accepted a topology leaving node 5 out")
	}
	if _, _, err := placement.SpreadAcrossDomainsWith(pl, racks([]int{3, 4}), 2, 1, placement.SpreadOpts{}); err == nil {
		t.Error("SpreadAcrossDomainsWith accepted a topology leaving node 5 out")
	}
	if _, _, err := placement.CheckCaps(racks([]int{3, 4}), pl.NodeLoads(), caps); err == nil {
		t.Error("CheckCaps accepted a topology leaving node 5 out")
	}
}
