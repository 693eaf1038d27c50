package repro_test

import (
	"fmt"
	"testing"

	"repro"
)

func TestPlanMaterializeAttackRoundTrip(t *testing.T) {
	const (
		n, r, s, k = 13, 3, 2, 3
		b          = 26
	)
	spec, bound, err := repro.PlanComboConstructible(n, r, s, k, b)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Capacity() < int64(b) {
		t.Fatalf("planned capacity %d < b", spec.Capacity())
	}
	pl, err := repro.Materialize(n, r, spec, b)
	if err != nil {
		t.Fatal(err)
	}
	attack, err := repro.WorstAttack(pl, s, k, repro.AttackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !attack.Exact {
		t.Error("exact search expected at this size")
	}
	if avail := attack.Avail(b); int64(avail) < bound {
		t.Errorf("Avail = %d below the guaranteed bound %d", avail, bound)
	}
}

func TestComboGuaranteeBeatsRandomEmpirically(t *testing.T) {
	// End-to-end comparison through the public API only: the Combo
	// guarantee should beat what Random actually achieves against the
	// worst case, for paper-style parameters scaled down.
	const (
		n, r, s, k = 13, 3, 2, 3
		b          = 26
	)
	_, bound, err := repro.PlanComboConstructible(n, r, s, k, b)
	if err != nil {
		t.Fatal(err)
	}
	worstRandom := b
	for seed := int64(0); seed < 5; seed++ {
		rp, err := repro.RandomPlacement(repro.Params{N: n, B: b, R: r, S: s, K: k}, seed)
		if err != nil {
			t.Fatal(err)
		}
		attack, err := repro.WorstAttack(rp, s, k, repro.AttackOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if avail := attack.Avail(b); avail < worstRandom {
			worstRandom = avail
		}
	}
	if int64(worstRandom) > bound+2 {
		t.Logf("note: Random did unusually well (%d vs bound %d)", worstRandom, bound)
	}
	if bound < int64(worstRandom)-10 {
		t.Errorf("Combo guarantee %d far below Random's observed %d", bound, worstRandom)
	}
}

func TestBuildSimpleAndParallelAttack(t *testing.T) {
	pl, err := repro.BuildSimple(13, 3, 1, 1, 26, repro.SimpleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := repro.WorstAttack(pl, 2, 3, repro.AttackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := repro.WorstAttack(pl, 2, 3, repro.AttackOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Failed != par.Failed {
		t.Errorf("parallel worst case %d != sequential %d", par.Failed, seq.Failed)
	}
	if !par.Exact {
		t.Error("unbounded parallel search should be exact")
	}
}

func TestLowerBoundsExposed(t *testing.T) {
	if got := repro.LowerBoundSimple(600, 2, 2, 1, 1); got != 599 {
		t.Errorf("LowerBoundSimple = %d, want 599", got)
	}
	if got := repro.LowerBoundCombo(100, 4, 2, []int{3, 2}); got != 82 {
		t.Errorf("LowerBoundCombo = %d, want 82", got)
	}
	pr, err := repro.PrAvail(repro.Params{N: 71, B: 600, R: 3, S: 2, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pr < 0 || pr > 600 {
		t.Errorf("PrAvail = %d out of range", pr)
	}
}

func TestClusterFacade(t *testing.T) {
	c, err := repro.NewCluster(repro.ClusterConfig{
		Nodes:             13,
		Replicas:          3,
		FatalityThreshold: 2,
		PlannedFailures:   3,
		ExpectedObjects:   10,
		Strategy:          repro.StrategyCombo,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.AddObject(fmt.Sprintf("vm-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Report(); st.AvailableObjects != 10 {
		t.Errorf("AvailableObjects = %d, want 10", st.AvailableObjects)
	}
}

func ExamplePlanCombo() {
	// Plan placements for 600 objects on 71 nodes, 3 replicas each,
	// where losing 2 replicas kills an object, against 4 failures.
	spec, bound, err := repro.PlanCombo(71, 3, 2, 4, 600)
	if err != nil {
		panic(err)
	}
	fmt.Println("lambdas:", spec.Lambdas)
	fmt.Println("guaranteed available:", bound)
	// Output:
	// lambdas: [0 1]
	// guaranteed available: 594
}

// TestMultiRegionFacade drives the acceptance scenario end to end
// through the public facade: a depth-3 region→zone→rack topology is
// parsed from a spec, attacked at each of its three levels via the
// shared search core, spread hierarchically (with and without rack
// caps), and never loses availability to the oblivious layout at any
// level.
func TestMultiRegionFacade(t *testing.T) {
	const (
		n, r, s, k = 12, 3, 2, 6
		b          = 16
	)
	spec, _, err := repro.PlanComboConstructible(n, r, s, k, b)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := repro.Materialize(n, r, spec, b)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := repro.TreeTopology(n, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Levels() != 3 {
		t.Fatalf("Levels = %d, want 3", topo.Levels())
	}
	// The spec round-trips through the facade parser.
	back, err := repro.ParseTopology(n, topo.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if back.Spec() != topo.Spec() {
		t.Errorf("spec round trip changed: %q -> %q", topo.Spec(), back.Spec())
	}

	aware, _, err := repro.SpreadAcrossDomains(pl, topo, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	for level := 0; level < topo.Levels(); level++ {
		obliv, err := repro.WorstDomainAttack(pl, topo, level, s, 1, repro.AttackOptions{})
		if err != nil {
			t.Fatal(err)
		}
		spreadRes, err := repro.WorstDomainAttack(aware, topo, level, s, 1, repro.AttackOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !obliv.Exact || !spreadRes.Exact {
			t.Fatalf("level %d: exact searches expected", level)
		}
		if spreadRes.Failed > obliv.Failed {
			t.Errorf("level %d: aware fails %d > oblivious %d", level, spreadRes.Failed, obliv.Failed)
		}
		// The parallel engine agrees with the serial one at every level.
		par, err := repro.WorstDomainAttack(pl, topo, level, s, 1, repro.AttackOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.Failed != obliv.Failed {
			t.Errorf("level %d: parallel %d != serial %d", level, par.Failed, obliv.Failed)
		}
	}
	// Constrained at region level: k nodes inside one region.
	conRes, err := repro.WorstConstrainedAttack(aware, topo, 0, s, k, 1, repro.AttackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	free, err := repro.WorstAttack(aware, s, k, repro.AttackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if conRes.Failed > free.Failed {
		t.Errorf("region-confined attack %d beats the free adversary %d", conRes.Failed, free.Failed)
	}
	// Capped spread through the facade: no rack over its cap.
	caps := make([]int, topo.NumDomains())
	for i := range caps {
		caps[i] = 8
	}
	capped, _, err := repro.SpreadAcrossDomainsWith(pl, topo, s, 1, repro.SpreadOptions{Caps: caps})
	if err != nil {
		t.Fatal(err)
	}
	spreadStats, err := repro.DomainSpread(capped, topo)
	if err != nil {
		t.Fatal(err)
	}
	if spreadStats.MinDomains < 1 {
		t.Errorf("capped spread min domains = %d", spreadStats.MinDomains)
	}
	cappedRes, err := repro.WorstDomainAttack(capped, topo, repro.LeafLevel, s, 1, repro.AttackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if availAt := cappedRes.Avail(b); availAt < 0 || availAt > b {
		t.Errorf("leaf-level availability out of range: %d", availAt)
	}
}
