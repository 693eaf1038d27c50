package adversary

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/combin"
	"repro/internal/placement"
)

// referenceWorst computes the worst k-failure by direct subset enumeration
// using an entirely independent code path (bitsets, no incremental state).
func referenceWorst(pl *placement.Placement, s, k int) int {
	worst := 0
	combin.ForEachSubset(pl.N, k, func(nodes []int) bool {
		failedSet := combin.NewBitsetFrom(pl.N, nodes)
		if f := pl.FailedObjects(failedSet, s); f > worst {
			worst = f
		}
		return true
	})
	return worst
}

func randomPlacement(rng *rand.Rand, n, r, b int) *placement.Placement {
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

func TestExhaustiveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(5)
		r := 2 + rng.Intn(3)
		if r > n {
			r = n
		}
		b := 5 + rng.Intn(25)
		s := 1 + rng.Intn(r)
		k := s + rng.Intn(n-s-1)
		pl := randomPlacement(rng, n, r, b)
		got, err := ExhaustiveWith(pl, s, k, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want := referenceWorst(pl, s, k)
		if got.Failed != want {
			t.Errorf("trial %d (n=%d r=%d b=%d s=%d k=%d): Exhaustive = %d, reference = %d",
				trial, n, r, b, s, k, got.Failed, want)
		}
		if !got.Exact {
			t.Error("Exhaustive must report Exact")
		}
		// The witness must reproduce the count.
		failedSet := combin.NewBitsetFrom(n, got.Nodes)
		if f := pl.FailedObjects(failedSet, s); f != got.Failed {
			t.Errorf("witness reproduces %d failures, reported %d", f, got.Failed)
		}
		if len(got.Nodes) != k {
			t.Errorf("witness has %d nodes, want %d", len(got.Nodes), k)
		}
	}
}

func TestWorstCaseMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(6)
		r := 2 + rng.Intn(3)
		b := 10 + rng.Intn(40)
		s := 1 + rng.Intn(r)
		k := s + 1 + rng.Intn(3)
		if k >= n {
			k = n - 1
		}
		pl := randomPlacement(rng, n, r, b)
		exact, err := ExhaustiveWith(pl, s, k, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		bnb, err := WorstCaseWith(pl, s, k, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if bnb.Failed != exact.Failed {
			t.Errorf("trial %d (n=%d r=%d b=%d s=%d k=%d): B&B = %d, exhaustive = %d",
				trial, n, r, b, s, k, bnb.Failed, exact.Failed)
		}
		if !bnb.Exact {
			t.Error("unbounded B&B must report Exact")
		}
		if bnb.Visited > exact.Visited {
			t.Errorf("B&B visited %d > exhaustive %d: pruning is not working",
				bnb.Visited, exact.Visited)
		}
	}
}

func TestGreedyIsValidLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(5)
		r := 3
		b := 20 + rng.Intn(30)
		s := 1 + rng.Intn(3)
		k := s + rng.Intn(3)
		if k >= n {
			k = n - 1
		}
		pl := randomPlacement(rng, n, r, b)
		greedy, err := GreedyWith(pl, s, k, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExhaustiveWith(pl, s, k, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Failed > exact.Failed {
			t.Errorf("greedy %d exceeds exact %d", greedy.Failed, exact.Failed)
		}
		// The witness must reproduce the claimed damage.
		failedSet := combin.NewBitsetFrom(n, greedy.Nodes)
		if f := pl.FailedObjects(failedSet, s); f != greedy.Failed {
			t.Errorf("greedy witness reproduces %d, reported %d", f, greedy.Failed)
		}
	}
}

func TestWorstCaseBudgetDegradesGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pl := randomPlacement(rng, 20, 3, 200)
	full, err := WorstCaseWith(pl, 2, 5, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := WorstCaseWith(pl, 2, 5, SearchOpts{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Exact {
		t.Error("budget-limited search on a large instance claims exactness")
	}
	if tiny.Failed > full.Failed {
		t.Errorf("budget result %d exceeds exact %d", tiny.Failed, full.Failed)
	}
	if tiny.Failed <= 0 {
		t.Error("budget result should still carry the greedy incumbent")
	}
}

func TestAdversaryParameterValidation(t *testing.T) {
	pl := placement.NewPlacement(5, 2)
	if err := pl.Add([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ExhaustiveWith(pl, 0, 2, SearchOpts{}); err == nil {
		t.Error("s = 0 accepted")
	}
	if _, err := ExhaustiveWith(pl, 3, 2, SearchOpts{}); err == nil {
		t.Error("s > r accepted")
	}
	if _, err := WorstCaseWith(pl, 1, 0, SearchOpts{}); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := WorstCaseWith(pl, 1, 5, SearchOpts{}); err == nil {
		t.Error("k >= n accepted")
	}
}

func TestFewerLoadedNodesThanK(t *testing.T) {
	// 3 objects all on nodes {0,1}; k = 4 > 2 loaded nodes.
	pl := placement.NewPlacement(10, 2)
	for i := 0; i < 3; i++ {
		if err := pl.Add([]int{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, engine := range []func(*placement.Placement, int, int, SearchOpts) (Result, error){
		ExhaustiveWith, WorstCaseWith, GreedyWith,
	} {
		res, err := engine(pl, 2, 4, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 3 {
			t.Errorf("Failed = %d, want 3", res.Failed)
		}
		if len(res.Nodes) != 4 {
			t.Errorf("witness size = %d, want 4", len(res.Nodes))
		}
	}
}

// TestLemma2OnConcretePlacements is the central paper-validation property:
// every Simple(x, λ) placement must achieve Avail(π) >= lbAvail_si(x, λ)
// under the exact worst-case adversary.
func TestLemma2OnConcretePlacements(t *testing.T) {
	cases := []struct {
		n, r, x, lambda, b int
	}{
		{9, 3, 1, 1, 12},
		{9, 3, 1, 2, 20},
		{13, 3, 1, 1, 26},
		{12, 3, 0, 2, 8},
		{8, 4, 2, 1, 14},
		{10, 5, 4, 1, 40},
	}
	for _, tc := range cases {
		pl, err := placement.BuildSimple(tc.n, tc.r, tc.x, tc.lambda, tc.b, placement.SimpleOptions{})
		if err != nil {
			t.Fatalf("BuildSimple(%+v): %v", tc, err)
		}
		for s := 1; s <= tc.r; s++ {
			for k := s; k <= s+2 && k < tc.n; k++ {
				if tc.x >= s {
					continue // Lemma 2 applies for x < s
				}
				res, err := WorstCaseWith(pl, s, k, SearchOpts{})
				if err != nil {
					t.Fatal(err)
				}
				avail := int64(res.Avail(pl.B()))
				lb := placement.LBAvailSimple(int64(pl.B()), k, s, tc.x, tc.lambda)
				if avail < lb {
					t.Errorf("case %+v s=%d k=%d: Avail = %d < lbAvail_si = %d (Lemma 2 violated)",
						tc, s, k, avail, lb)
				}
			}
		}
	}
}

// TestLemma3OnConcreteCombo validates the Combo lower bound end to end:
// optimize a spec, materialize it, attack it exactly, compare to the bound.
func TestLemma3OnConcreteCombo(t *testing.T) {
	n, r, s := 13, 3, 2
	units, err := placement.DefaultUnits(n, r, s, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{4, 10, 30, 52} {
		for k := s; k <= 4; k++ {
			spec, bound, err := placement.OptimizeCombo(b, k, s, units)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := placement.BuildCombo(n, r, spec, b, placement.SimpleOptions{})
			if err != nil {
				t.Fatalf("BuildCombo(b=%d, k=%d, λ=%v): %v", b, k, spec.Lambdas, err)
			}
			res, err := WorstCaseWith(pl, s, k, SearchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if avail := int64(res.Avail(b)); avail < bound {
				t.Errorf("b=%d k=%d λ=%v: Avail = %d < lbAvail_co = %d (Lemma 3 violated)",
					b, k, spec.Lambdas, avail, bound)
			}
		}
	}
}

// TestTheorem1Competitive checks the c-competitive guarantee empirically:
// no random alternative placement beats c·Avail(π) + α.
func TestTheorem1Competitive(t *testing.T) {
	n, r, s, k, x := 13, 3, 3, 4, 1
	b := 26
	pl, err := placement.BuildSimple(n, r, x, 1, b, placement.SimpleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := WorstCaseWith(pl, s, k, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	availSimple := float64(res.Avail(b))
	c, alpha, ok := placement.CompetitiveConstants(13, r, s, k, x, 1)
	if !ok {
		t.Fatal("competitive constants unavailable")
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		alt := randomPlacement(rng, n, r, b)
		altRes, err := WorstCaseWith(alt, s, k, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if float64(altRes.Avail(b)) >= c*availSimple+alpha {
			t.Errorf("trial %d: Avail(π') = %d >= c·Avail(π)+α = %.2f (Theorem 1 violated)",
				trial, altRes.Avail(b), c*availSimple+alpha)
		}
	}
}

func TestWorstCasePropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 7 + rng.Intn(4)
		r := 2 + rng.Intn(2)
		b := 5 + rng.Intn(20)
		s := 1 + rng.Intn(r)
		k := s + rng.Intn(2)
		if k >= n {
			k = n - 1
		}
		pl := randomPlacement(rng, n, r, b)
		ex, err1 := ExhaustiveWith(pl, s, k, SearchOpts{})
		bb, err2 := WorstCaseWith(pl, s, k, SearchOpts{})
		return err1 == nil && err2 == nil && ex.Failed == bb.Failed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
