package adversary

import (
	"math/rand"
	"testing"

	"repro/internal/combin"
	"repro/internal/placement"
	"repro/internal/search"
	"repro/internal/topology"
)

func TestWorstCaseParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		n := 10 + rng.Intn(8)
		r := 2 + rng.Intn(3)
		b := 20 + rng.Intn(60)
		s := 1 + rng.Intn(r)
		k := s + rng.Intn(3)
		if k >= n {
			k = n - 1
		}
		pl := randomPlacement(rng, n, r, b)
		seq, err := WorstCaseWith(pl, s, k, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			par, err := WorstCaseWith(pl, s, k, SearchOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if par.Failed != seq.Failed {
				t.Errorf("trial %d (n=%d r=%d b=%d s=%d k=%d, %d workers): parallel %d != sequential %d",
					trial, n, r, b, s, k, workers, par.Failed, seq.Failed)
			}
			if !par.Exact {
				t.Error("unbounded parallel search must be exact")
			}
			// The witness reproduces the damage.
			failedSet := combin.NewBitsetFrom(n, par.Nodes)
			if f := pl.FailedObjects(failedSet, s); f != par.Failed {
				t.Errorf("parallel witness reproduces %d, reported %d", f, par.Failed)
			}
		}
	}
}

func TestWorstCaseParallelBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pl := randomPlacement(rng, 24, 3, 300)
	res, err := WorstCaseWith(pl, 2, 5, SearchOpts{Budget: 50, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Error("tiny budget should not complete exactly")
	}
	if res.Failed <= 0 {
		t.Error("budgeted parallel search lost the greedy incumbent")
	}
	exact, err := WorstCaseWith(pl, 2, 5, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > exact.Failed {
		t.Errorf("budgeted result %d exceeds exact %d", res.Failed, exact.Failed)
	}
}

func TestWorstCaseParallelDegenerate(t *testing.T) {
	// Fewer loaded candidates than k falls back to the sequential path.
	pl := placement.NewPlacement(10, 2)
	for i := 0; i < 3; i++ {
		if err := pl.Add([]int{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := WorstCaseWith(pl, 2, 4, SearchOpts{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 3 {
		t.Errorf("Failed = %d, want 3", res.Failed)
	}
	// A single worker runs the serial driver.
	res, err = WorstCaseWith(pl, 2, 4, SearchOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 3 {
		t.Errorf("single worker Failed = %d, want 3", res.Failed)
	}
}

func TestDomainWorstCaseParBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pl := randomPlacement(rng, 24, 3, 150)
	topo, err := topology.Uniform(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, 2, 4, SearchOpts{Budget: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Error("tiny budget should not complete exactly")
	}
	if res.Failed <= 0 {
		t.Error("budgeted parallel domain search lost the greedy incumbent")
	}
	exact, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, 2, 4, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > exact.Failed {
		t.Errorf("budgeted result %d exceeds exact %d", res.Failed, exact.Failed)
	}
}

func TestDomainWorstCaseParDegenerate(t *testing.T) {
	// All load in one rack; d = 2 > 1 loaded domain, several workers.
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
	for _, workers := range []int{1, 3} {
		res, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, 2, 2, SearchOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 3 {
			t.Errorf("workers=%d: Failed = %d, want 3", workers, res.Failed)
		}
		if len(res.Domains) != 2 {
			t.Errorf("workers=%d: witness has %d domains, want 2", workers, len(res.Domains))
		}
	}
}

func TestConstrainedWorstCaseParBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	pl := randomPlacement(rng, 20, 3, 200)
	topo, err := topology.Uniform(20, 5)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, 2, 5, 2, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// One worker and three share the abort semantics: a drained budget
	// ends the subset sweep with the incumbent so far, inexactly. Every
	// state, each subset's root included, is leased from the shared
	// budget, so concurrent subset workers never overshoot it; the
	// parallel case repeats so the race detector sees many
	// interleavings.
	for _, tc := range []struct {
		name          string
		workers, reps int
	}{{"serial", 1, 1}, {"parallel", 3, 50}} {
		for rep := 0; rep < tc.reps; rep++ {
			res, err := ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, 2, 5, 2, SearchOpts{Budget: 20, Workers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.Visited > 20 {
				t.Fatalf("%s rep %d: visited %d states, budget 20", tc.name, rep, res.Visited)
			}
			if res.Exact {
				t.Fatalf("%s rep %d: tiny shared budget should not complete exactly", tc.name, rep)
			}
			if res.Failed <= 0 {
				t.Fatalf("%s rep %d: budgeted constrained search lost every incumbent", tc.name, rep)
			}
			if res.Failed > exact.Failed {
				t.Fatalf("%s rep %d: budgeted result %d exceeds exact %d", tc.name, rep, res.Failed, exact.Failed)
			}
		}
	}
}

// TestConstrainedParallelBudgetJustSuffices pins exact charging when
// concurrent subset searches share one budget: a budget of exactly the
// states the full sweep needs must complete it, at any worker count. A
// search holding leased-but-unentered states would make the others see
// the budget as drained, skip their subsets and report an inexact
// result. That needs a sweep whose state count is the same in any
// schedule, and subset searches share the incumbent: it lifts each
// subset's seed, and the prunes and child skips read it. A random
// placement's sweep is not schedule-free (its subsets' counts move
// with the lift), so the instance repeats one random 6-node block in
// each of 4 domains: every domain pair is the same subproblem, and no
// subset's optimum lifts another's greedy seed. The test proves the
// sweep schedule-free first (scheduleFreeStates), then gives every run
// exactly that many states.
func TestConstrainedParallelBudgetJustSuffices(t *testing.T) {
	const n, domains, r, s, k, d = 24, 4, 3, 2, 5, 2
	topo, err := topology.Uniform(n, domains)
	if err != nil {
		t.Fatal(err)
	}
	block := randomPlacement(rand.New(rand.NewSource(53)), n/domains, r, 30)
	pl := placement.NewPlacement(n, r)
	for dom := 0; dom < domains; dom++ {
		nodes := topo.FailedSet([]int{dom}).Members(nil)
		for _, obj := range block.Objects {
			var replicas []int
			for _, x := range obj.Members(nil) {
				replicas = append(replicas, nodes[x])
			}
			if err := pl.Add(replicas); err != nil {
				t.Fatal(err)
			}
		}
	}
	states := scheduleFreeStates(t, pl, topo, s, k, d)
	one, err := ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, s, k, d, SearchOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.Visited != states {
		t.Fatalf("one worker visited %d states, the subsets alone %d", one.Visited, states)
	}
	for rep := 0; rep < 50; rep++ {
		res, err := ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, s, k, d, SearchOpts{Budget: states, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact || res.Failed != one.Failed || res.Visited != states {
			t.Fatalf("rep %d: budget %d gave Exact=%v Failed=%d Visited=%d, want exact %d in %d states",
				rep, states, res.Exact, res.Failed, res.Visited, one.Failed, states)
		}
	}
}

// scheduleFreeStates proves that a constrained sweep enters the same
// number of states in any schedule, and returns that number. Which
// incumbent a subset's search starts from is all the schedule decides:
// its greedy seed, lifted (see constrainedRun.work) to the best damage
// merged so far, or one less when that came from a later subset. The
// best damage merged is always some subset's optimum, so every subset
// is searched alone, on one worker, from each seed it can be handed,
// and must enter the same number of states from each.
func scheduleFreeStates(t *testing.T, pl *placement.Placement, topo *topology.Topology, s, k, d int) int64 {
	t.Helper()
	sh, err := newConstrainedShared(pl, topo, topology.Leaf, s, k, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := search.NewHitInstance(s, pl.B())
	var subsets [][]int
	var ids []int
	cur := make([]int, d)
	for more := combin.FirstSubset(sh.topo.NumDomains(), cur); more; more = combin.NextSubset(sh.topo.NumDomains(), cur) {
		subsets = append(subsets, append([]int(nil), cur...))
	}
	search1 := func(domains []int, lift int) search.Result {
		ids = sh.subsetInstance(in, domains, ids)
		seed, _ := search.WarmSeed(in, nil)
		if lift > seed.Failed {
			seed = search.Result{Failed: lift}
		}
		return search.BranchAndBound(in, seed, search.NewBudget(0), 1, search.BoundResidual)
	}
	var lifts []int
	for _, sub := range subsets {
		opt := search1(sub, -1).Failed
		lifts = append(lifts, opt, opt-1)
	}
	var total int64
	for _, sub := range subsets {
		want := search1(sub, -1).Visited
		for _, lift := range lifts {
			if got := search1(sub, lift).Visited; got != want {
				t.Fatalf("subset %v enters %d states from a seed lifted to %d, %d unlifted: the sweep depends on the schedule",
					sub, got, lift, want)
			}
		}
		total += want
	}
	return total
}

// TestBudgetedParallelAlwaysValidAttack pins the only run-invariant
// contract the budgeted+parallel regime offers. Which incumbent wins a
// budget race legitimately varies run to run (see the scheduling note
// in internal/search/steal.go), so nothing here compares Failed
// across runs — every run must instead return a self-consistent valid
// attack: the witness replays to the reported damage, the damage never
// exceeds the true optimum, and a drained budget is reported inexact.
func TestBudgetedParallelAlwaysValidAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	pl := randomPlacement(rng, 24, 3, 300)
	const s, k = 2, 5
	exact, err := WorstCaseWith(pl, s, k, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Uniform(24, 8)
	if err != nil {
		t.Fatal(err)
	}
	exactDom, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, 3, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 6; run++ {
		res, err := WorstCaseWith(pl, s, k, SearchOpts{Budget: 60, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Nodes) == 0 || len(res.Nodes) > k {
			t.Fatalf("run %d: witness %v is not a ≤%d-node attack", run, res.Nodes, k)
		}
		failedSet := combin.NewBitsetFrom(pl.N, res.Nodes)
		if got := pl.FailedObjects(failedSet, s); got != res.Failed {
			t.Fatalf("run %d: witness %v replays to %d, reported %d", run, res.Nodes, got, res.Failed)
		}
		if res.Failed > exact.Failed {
			t.Fatalf("run %d: budgeted damage %d exceeds exact optimum %d", run, res.Failed, exact.Failed)
		}
		if res.Exact && res.Failed != exact.Failed {
			t.Fatalf("run %d: claims exact with damage %d, optimum is %d", run, res.Failed, exact.Failed)
		}

		dom, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, 3, SearchOpts{Budget: 60, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(dom.Domains) == 0 || len(dom.Domains) > 3 {
			t.Fatalf("run %d: domain witness %v is not a ≤3-domain attack", run, dom.Domains)
		}
		if got := pl.FailedObjects(topo.FailedSet(dom.Domains), s); got != dom.Failed {
			t.Fatalf("run %d: domain witness %v replays to %d, reported %d", run, dom.Domains, got, dom.Failed)
		}
		if dom.Failed > exactDom.Failed {
			t.Fatalf("run %d: budgeted domain damage %d exceeds exact optimum %d", run, dom.Failed, exactDom.Failed)
		}
		if dom.Exact && dom.Failed != exactDom.Failed {
			t.Fatalf("run %d: claims exact with damage %d, domain optimum is %d", run, dom.Failed, exactDom.Failed)
		}
	}
}

func TestWorstCaseParallelOnStructuredPlacement(t *testing.T) {
	pl, err := placement.BuildSimple(19, 3, 1, 2, 100, placement.SimpleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := WorstCaseWith(pl, 2, 4, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := WorstCaseWith(pl, 2, 4, SearchOpts{Workers: -1}) // -1 => GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if par.Failed != seq.Failed {
		t.Errorf("parallel %d != sequential %d", par.Failed, seq.Failed)
	}
}
