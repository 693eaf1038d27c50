package placement

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/combin"
)

// paperUnits71R3 are the catalog units for n=71, r=3 (paper Fig. 4):
// n_0 = 69 (partition), n_1 = 69 (STS), n_2 = 71 (complete).
func paperUnits71R3(t *testing.T, s int) []Unit {
	t.Helper()
	units, err := DefaultUnits(71, 3, s, false)
	if err != nil {
		t.Fatal(err)
	}
	return units
}

func TestDefaultUnitsMatchPaperFig4(t *testing.T) {
	units := paperUnits71R3(t, 3)
	if units[0].CapPerMu != 23 { // 69/3
		t.Errorf("x=0 capacity = %d, want 23", units[0].CapPerMu)
	}
	if units[1].CapPerMu != 782 { // C(69,2)/C(3,2)
		t.Errorf("x=1 capacity = %d, want 782", units[1].CapPerMu)
	}
	if units[2].CapPerMu != 57155 { // C(71,3)
		t.Errorf("x=2 capacity = %d, want 57155", units[2].CapPerMu)
	}

	// n=71, r=5, s=3: n_1 = 65 (2-(65,5,1)), n_2 = 65 (3-(65,5,1)).
	units5, err := DefaultUnits(71, 5, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if units5[1].CapPerMu != 208 { // C(65,2)/C(5,2) = 2080/10
		t.Errorf("r=5 x=1 capacity = %d, want 208", units5[1].CapPerMu)
	}
	if units5[2].CapPerMu != 4368 { // C(65,3)/C(5,3) = 43680/10
		t.Errorf("r=5 x=2 capacity = %d, want 4368", units5[2].CapPerMu)
	}
}

func TestDefaultUnitsConstructibleMode(t *testing.T) {
	// In constructible mode the r=4, x=2 unit for n=71 must use the
	// Boolean SQS(64) rather than the (unconstructible) SQS(70).
	units, err := DefaultUnits(71, 4, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	// C(64,3)/C(4,3) = 41664/4 = 10416.
	if units[2].CapPerMu != 10416 {
		t.Errorf("constructible x=2 capacity = %d, want 10416", units[2].CapPerMu)
	}
}

func TestLBAvailComboLemma3(t *testing.T) {
	// λ_0 = 3, λ_1 = 2; s = 2, k = 4:
	// failures = ⌊3·C(4,1)/C(2,1)⌋ + ⌊2·C(4,2)/C(2,2)⌋ = 6 + 12 = 18.
	if got := LBAvailCombo(100, 4, 2, []int{3, 2}); got != 82 {
		t.Errorf("lbAvail_co = %d, want 82", got)
	}
	// Zero lambdas contribute nothing.
	if got := LBAvailCombo(100, 4, 2, []int{0, 0}); got != 100 {
		t.Errorf("lbAvail_co all-zero = %d, want 100", got)
	}
	// Cap at b.
	if got := LBAvailCombo(5, 4, 2, []int{100, 0}); got != 0 {
		t.Errorf("lbAvail_co capped = %d, want 0", got)
	}
}

func TestOptimizeComboSmallAgainstBruteForce(t *testing.T) {
	units := paperUnits71R3(t, 3)
	for _, b := range []int{1, 23, 24, 600, 1200, 2400} {
		for _, k := range []int{3, 4, 5, 6} {
			spec, got, err := OptimizeCombo(b, k, 3, units)
			if err != nil {
				t.Fatalf("OptimizeCombo(b=%d, k=%d): %v", b, k, err)
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("spec invalid: %v", err)
			}
			if spec.Capacity() < int64(b) {
				t.Fatalf("b=%d k=%d: spec capacity %d violates Eqn. 3", b, k, spec.Capacity())
			}
			want := bruteForceCombo(b, k, 3, units)
			if got != want {
				t.Errorf("b=%d k=%d: DP = %d, brute force = %d (λ = %v)", b, k, got, want, spec.Lambdas)
			}
		}
	}
}

// bruteForceCombo evaluates the recurrence of Eqns. 5–7 by direct
// recursion without memoization — an independent oracle for the DP.
func bruteForceCombo(b, k, s int, units []Unit) int64 {
	var rec func(x int, bPrime int64) int64
	rec = func(x int, bPrime int64) int64 {
		if bPrime <= 0 {
			return 0
		}
		u := units[x]
		t := x + 1
		failNum := int64(u.Mu) * combin.Choose(k, t)
		failDen := combin.Choose(s, t)
		if x == 0 {
			copies := combin.CeilDiv(bPrime, u.CapPerMu)
			v := bPrime - combin.FloorDiv(copies*failNum, failDen)
			if v < 0 {
				return 0
			}
			return v
		}
		best := int64(-1 << 62)
		dMax := combin.CeilDiv(bPrime, u.CapPerMu)
		for d := int64(0); d <= dMax; d++ {
			placed := d * u.CapPerMu
			contribution := placed
			if bPrime < placed {
				contribution = bPrime
			}
			contribution -= combin.FloorDiv(d*failNum, failDen)
			if v := contribution + rec(x-1, bPrime-placed); v > best {
				best = v
			}
		}
		return best
	}
	return rec(s-1, int64(b))
}

func TestOptimizeComboRandomUnitsProperty(t *testing.T) {
	// DP equals the direct recurrence for randomly drawn capacity units —
	// independent of the paper's catalog.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := 2 + rng.Intn(3)
		units := make([]Unit, s)
		for x := range units {
			units[x] = Unit{
				X:        x,
				Mu:       1 + rng.Intn(2),
				CapPerMu: int64(3 + rng.Intn(60)),
			}
		}
		b := 1 + rng.Intn(400)
		k := s + rng.Intn(4)
		_, got, err := OptimizeCombo(b, k, s, units)
		if err != nil {
			return false
		}
		return got == bruteForceCombo(b, k, s, units)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestOptimizeComboReconstructionConsistent(t *testing.T) {
	// The reconstructed ⟨λx⟩ must reproduce the DP's bound via Lemma 3
	// whenever the bound is positive.
	units := paperUnits71R3(t, 3)
	for _, b := range []int{600, 1200, 4800, 9600} {
		for _, k := range []int{3, 5, 7} {
			spec, bound, err := OptimizeCombo(b, k, 3, units)
			if err != nil {
				t.Fatal(err)
			}
			if bound <= 0 {
				continue
			}
			if got := LBAvailCombo(int64(b), k, 3, spec.Lambdas); got != bound {
				t.Errorf("b=%d k=%d: Lemma 3 on reconstructed λ %v = %d, DP bound = %d",
					b, k, spec.Lambdas, got, bound)
			}
		}
	}
}

// TestComboBoundSweepMatchesOptimize pins the two entry points of the
// one Combo DP to each other: the sweep's bound at every b ≤ 2500 equals
// OptimizeCombo's at s = 1..4, and in the overflow regime, where
// μ·C(k, x+1) exceeds int64, OptimizeCombo's bound stays ≥ 0, equals the
// sweep's, and its ⟨λx⟩ reproduces it through Lemma 3.
func TestComboBoundSweepMatchesOptimize(t *testing.T) {
	const bMax = 2500
	type row struct {
		s     int
		units []Unit
		ks    []int
	}
	rows := []row{
		{1, paperUnits71R3(t, 1), []int{1, 3}},
		{2, paperUnits71R3(t, 2), []int{2, 5}},
		{3, paperUnits71R3(t, 3), []int{3, 5, 7}},
	}
	units4, err := DefaultUnits(71, 4, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, row{4, units4, []int{4, 6}})
	for _, r := range rows {
		for _, k := range r.ks {
			sweep, err := ComboBoundSweep(bMax, k, r.s, r.units)
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b <= bMax; b++ {
				_, want, err := OptimizeCombo(b, k, r.s, r.units)
				if err != nil {
					t.Fatal(err)
				}
				if sweep[b] != want {
					t.Fatalf("s=%d k=%d b=%d: sweep = %d, optimize = %d", r.s, k, b, sweep[b], want)
				}
			}
		}
	}

	// C(4e6, 3) and C(5e9, 2) overflow int64; k = 4 is the in-range
	// reference.
	units := []Unit{{X: 0, Mu: 1, CapPerMu: 23}, {X: 1, Mu: 1, CapPerMu: 30}, {X: 2, Mu: 1, CapPerMu: 40}}
	const b = 100
	for _, c := range []struct {
		k    int
		want int64
	}{{4, 94}, {4_000_000, 0}, {5_000_000_000, 0}} {
		spec, bound, err := OptimizeCombo(b, c.k, 3, units)
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := ComboBoundSweep(b, c.k, 3, units)
		if err != nil {
			t.Fatal(err)
		}
		if bound != c.want || sweep[b] != bound {
			t.Errorf("k=%d: optimize = %d (λ = %v), sweep = %d, want %d", c.k, bound, spec.Lambdas, sweep[b], c.want)
		}
		if got := LBAvailCombo(b, c.k, 3, spec.Lambdas); got != bound {
			t.Errorf("k=%d: Lemma 3 on reconstructed λ %v = %d, DP bound = %d", c.k, spec.Lambdas, got, bound)
		}
	}

	if _, err := ComboBoundSweep(10, 3, 0, nil); err == nil {
		t.Error("s = 0 accepted")
	}
	if _, err := ComboBoundSweep(-1, 3, 3, paperUnits71R3(t, 3)); err == nil {
		t.Error("negative bMax accepted")
	}
}

func TestOptimizeComboS1(t *testing.T) {
	units, err := DefaultUnits(71, 3, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	spec, bound, err := OptimizeCombo(100, 2, 1, units)
	if err != nil {
		t.Fatal(err)
	}
	// λ_0 = ceil(100/23) = 5; failures = ⌊5·2/1⌋ = 10.
	if spec.Lambdas[0] != 5 {
		t.Errorf("λ_0 = %d, want 5", spec.Lambdas[0])
	}
	if bound != 90 {
		t.Errorf("bound = %d, want 90", bound)
	}
}

func TestOptimizeComboRejectsBadInput(t *testing.T) {
	units := paperUnits71R3(t, 3)
	if _, _, err := OptimizeCombo(10, 3, 0, nil); err == nil {
		t.Error("s = 0 accepted")
	}
	if _, _, err := OptimizeCombo(10, 3, 3, units[:2]); err == nil {
		t.Error("missing units accepted")
	}
	if _, _, err := OptimizeCombo(-1, 3, 3, units); err == nil {
		t.Error("negative b accepted")
	}
	swapped := []Unit{units[1], units[0], units[2]}
	if _, _, err := OptimizeCombo(10, 3, 3, swapped); err == nil {
		t.Error("misordered units accepted")
	}
}

func TestBuildComboMaterializes(t *testing.T) {
	// Small concrete Combo: n=9, r=3, s=2.
	units, err := DefaultUnits(9, 3, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := OptimizeCombo(20, 3, 2, units)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildCombo(9, 3, spec, 20, SimpleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if pl.B() != 20 {
		t.Errorf("B = %d, want 20", pl.B())
	}
}

func TestBuildComboRejectsOverCapacity(t *testing.T) {
	units, err := DefaultUnits(9, 3, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	spec := ComboSpec{Lambdas: []int{1, 0}, Units: units}
	if _, err := BuildCombo(9, 3, spec, 100, SimpleOptions{}); err == nil {
		t.Error("over-capacity spec accepted")
	}
}

func TestComboSpecValidate(t *testing.T) {
	units := []Unit{{X: 0, Mu: 2, CapPerMu: 10}, {X: 1, Mu: 1, CapPerMu: 50}}
	good := ComboSpec{Lambdas: []int{4, 3}, Units: units}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if got := good.Capacity(); got != 2*10+3*50 {
		t.Errorf("Capacity = %d, want 170", got)
	}
	bad := ComboSpec{Lambdas: []int{3, 3}, Units: units} // 3 not multiple of μ=2
	if err := bad.Validate(); err == nil {
		t.Error("λ not multiple of μ accepted")
	}
	mismatched := ComboSpec{Lambdas: []int{2}, Units: units}
	if err := mismatched.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
}
