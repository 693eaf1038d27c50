package adversary_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/placement"
	"repro/internal/randplace"
)

// TestLemma3AtPaperScaleN31 validates the Combo guarantee end to end at
// one of the paper's actual system sizes (n = 31) with exact adversaries:
// optimize, materialize, attack, compare to the bound — for both r = 3
// and r = 5 replication and the paper's b = 600 workload.
func TestLemma3AtPaperScaleN31(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale validation skipped in short mode")
	}
	cases := []struct {
		r, s, k, b int
	}{
		{3, 2, 2, 600},
		{3, 2, 3, 600},
		{3, 3, 3, 600},
		{3, 3, 4, 600},
		{5, 3, 3, 600},
		{5, 3, 4, 600},
	}
	for _, tc := range cases {
		units, err := placement.DefaultUnits(31, tc.r, tc.s, true)
		if err != nil {
			t.Fatal(err)
		}
		spec, bound, err := placement.OptimizeCombo(tc.b, tc.k, tc.s, units)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := placement.BuildCombo(31, tc.r, spec, tc.b, placement.SimpleOptions{})
		if err != nil {
			t.Fatalf("BuildCombo(%+v, λ=%v): %v", tc, spec.Lambdas, err)
		}
		if err := pl.Validate(); err != nil {
			t.Fatal(err)
		}
		res, err := adversary.WorstCaseWith(pl, tc.s, tc.k, adversary.SearchOpts{Workers: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact {
			t.Fatalf("%+v: expected exact search", tc)
		}
		avail := int64(res.Avail(tc.b))
		if avail < bound {
			t.Errorf("%+v λ=%v: Avail = %d < guaranteed %d (Lemma 3 violated at paper scale)",
				tc, spec.Lambdas, avail, bound)
		}
		t.Logf("n=31 r=%d s=%d k=%d b=%d: guaranteed %d, exact worst case %d (gap %d)",
			tc.r, tc.s, tc.k, tc.b, bound, avail, avail-bound)
	}
}

// TestComboBeatsRandomAtPaperScale verifies the paper's central claim on
// concrete placements at n = 31: the Combo worst case is no worse than
// Random's worst case across seeds, for a configuration where Fig. 9
// predicts a Combo win.
func TestComboBeatsRandomAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale validation skipped in short mode")
	}
	const (
		n, r, s, k = 31, 3, 2, 3
		b          = 600
	)
	units, err := placement.DefaultUnits(n, r, s, true)
	if err != nil {
		t.Fatal(err)
	}
	spec, bound, err := placement.OptimizeCombo(b, k, s, units)
	if err != nil {
		t.Fatal(err)
	}
	combo, err := placement.BuildCombo(n, r, spec, b, placement.SimpleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	comboRes, err := adversary.WorstCaseWith(combo, s, k, adversary.SearchOpts{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	comboAvail := comboRes.Avail(b)
	if int64(comboAvail) < bound {
		t.Fatalf("combo Avail %d below bound %d", comboAvail, bound)
	}
	for seed := int64(1); seed <= 3; seed++ {
		rp, err := randplace.Generate(placement.Params{N: n, B: b, R: r, S: s, K: k}, seed)
		if err != nil {
			t.Fatal(err)
		}
		randomRes, err := adversary.WorstCaseWith(rp, s, k, adversary.SearchOpts{Workers: -1})
		if err != nil {
			t.Fatal(err)
		}
		if randomRes.Avail(b) > comboAvail {
			t.Errorf("seed %d: random placement survived %d > combo %d against the worst case",
				seed, randomRes.Avail(b), comboAvail)
		}
	}
}
