package placement

import (
	"fmt"
	"math"

	"repro/internal/combin"
	"repro/internal/design"
)

// ComboSpec is a configured Combo(⟨λx⟩) placement strategy: Lambdas[x] is
// λ_x for x = 0..s-1 (Definition 3), and Units[x] describes the building
// block that backs it. Objects are divided across Simple(x, λ_x)
// placements; Eqn. 3 (total capacity >= b) must hold.
type ComboSpec struct {
	Lambdas []int
	Units   []Unit
}

// S returns the fatality threshold the spec was built for.
func (cs ComboSpec) S() int { return len(cs.Lambdas) }

// Capacity returns Σ_x (λ_x/μ_x)·capPerMu_x, the number of objects the
// spec can place (left side of Eqn. 3).
func (cs ComboSpec) Capacity() int64 {
	var total int64
	for x, lambda := range cs.Lambdas {
		if lambda == 0 {
			continue
		}
		u := cs.Units[x]
		total += int64(lambda/u.Mu) * u.CapPerMu
	}
	return total
}

// Validate checks structural consistency: one unit per x, λ_x a
// non-negative multiple of μ_x.
func (cs ComboSpec) Validate() error {
	if len(cs.Lambdas) != len(cs.Units) {
		return fmt.Errorf("placement: %d lambdas but %d units", len(cs.Lambdas), len(cs.Units))
	}
	for x, u := range cs.Units {
		if u.X != x {
			return fmt.Errorf("placement: unit %d has x = %d", x, u.X)
		}
		if err := u.Validate(); err != nil {
			return err
		}
		if cs.Lambdas[x] < 0 || cs.Lambdas[x]%u.Mu != 0 {
			return fmt.Errorf("placement: λ_%d = %d not a non-negative multiple of μ = %d",
				x, cs.Lambdas[x], u.Mu)
		}
	}
	return nil
}

// LBAvailCombo returns lbAvail_co(⟨λx⟩) = b − Σ_x ⌊λ_x·C(k, x+1)/C(s, x+1)⌋,
// the Lemma 3 lower bound on the availability of a Combo placement of b
// objects under k failures. Unlike the DP (which clamps at zero via its
// base case), the raw bound may be negative.
func LBAvailCombo(b int64, k, s int, lambdas []int) int64 {
	var failed int64
	for x, lambda := range lambdas {
		if lambda == 0 {
			continue
		}
		t := x + 1
		den := combin.Choose(s, t)
		if den == 0 {
			continue
		}
		// An overflowed λ_x·C(k, t) means this term alone fails
		// everything — saturate at b, never at 0.
		term := failedFloor(int64(lambda), failNumOf(1, k, t), den, b)
		if term >= b-failed {
			failed = b
			break
		}
		failed += term
	}
	if failed > b {
		failed = b
	}
	return b - failed
}

// failNumOf returns μ·C(k, t), or -1 when the product overflows int64 —
// the "this unit\'s failure term is astronomical" sentinel consumed by
// failedFloor. (Audit note: Choose returns 0 on overflow, which the DP
// below would read as "this unit never fails an object", the exact
// opposite of the truth.)
func failNumOf(mu, k, t int) int64 {
	c, err := combin.Binomial(k, t)
	if err != nil || (mu > 0 && c > math.MaxInt64/int64(mu)) {
		return -1
	}
	return int64(mu) * c
}

// failedFloor returns ⌊mult·failNum/failDen⌋, reading any overflow (the
// failNum sentinel -1, or the product) as overflowValue — an overflowed
// failure count must never shrink to 0. Non-overflow arithmetic is
// exactly the old FloorDiv expression.
func failedFloor(mult, failNum, failDen, overflowValue int64) int64 {
	if failNum < 0 || (mult > 0 && failNum > math.MaxInt64/mult) {
		return overflowValue
	}
	return combin.FloorDiv(mult*failNum, failDen)
}

// OptimizeCombo computes the ⟨λx⟩ maximizing the Lemma 3 lower bound for
// placing b objects under k failures, via the dynamic program of
// Sec. III-B1 (Eqns. 5–7). units must supply one Unit per x in 0..s-1.
// It returns the optimal spec together with lbav(s-1, b), which is always
// >= 0 (the DP's base case clamps at zero, and every layer can take
// d = 0).
//
// The DP runs in O(s·b·d_max) time where d_max is the largest multiple of
// μ_x needed to cover b alone — O(s·b) treating capacities as constants,
// as the paper states.
func OptimizeCombo(b, k, s int, units []Unit) (ComboSpec, int64, error) {
	if err := checkComboUnits(s, units); err != nil {
		return ComboSpec{}, 0, err
	}
	if b < 0 {
		return ComboSpec{}, 0, fmt.Errorf("placement: b = %d negative", b)
	}
	choice := make([][]int32, s)
	best := comboDP(b, k, s, units, choice)[b]

	// Reconstruct ⟨λx⟩ by walking the recorded choices back down; what
	// is left goes to x = 0, whose λ_0/μ_0 Eqn. 6 fixes.
	lambdas := make([]int, s)
	remaining := int64(b)
	for x := s - 1; x >= 1; x-- {
		d := int64(choice[x][remaining])
		lambdas[x] = int(d) * units[x].Mu
		remaining = max(remaining-d*units[x].CapPerMu, 0)
	}
	lambdas[0] = int(combin.CeilDiv(remaining, units[0].CapPerMu)) * units[0].Mu

	spec := ComboSpec{Lambdas: lambdas, Units: append([]Unit(nil), units...)}
	return spec, best, nil
}

// ComboBoundSweep computes the optimal DP bound lbav(s-1, b′) for every
// object count b′ = 0..bMax in a single pass — the batched form of
// OptimizeCombo used by the experiment harness, where one (n, r, s, k)
// table row needs the bound at many values of b. Only the bound values
// are produced (no ⟨λx⟩ reconstruction).
func ComboBoundSweep(bMax, k, s int, units []Unit) ([]int64, error) {
	if err := checkComboUnits(s, units); err != nil {
		return nil, err
	}
	if bMax < 0 {
		return nil, fmt.Errorf("placement: bMax = %d negative", bMax)
	}
	return comboDP(bMax, k, s, units, nil), nil
}

// checkComboUnits validates the units the Combo DP reads: one per x in
// 0..s-1, units[x] describing x.
func checkComboUnits(s int, units []Unit) error {
	if s < 1 {
		return fmt.Errorf("placement: s = %d must be positive", s)
	}
	if len(units) != s {
		return fmt.Errorf("placement: need %d units (one per x), got %d", s, len(units))
	}
	for x, u := range units {
		if u.X != x {
			return fmt.Errorf("placement: units[%d].X = %d, want %d", x, u.X, x)
		}
		if err := u.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// comboDP returns lbav(s-1, b′) for every b′ = 0..bMax. Layer 0 is
// Eqn. 6 in closed form, clamped at zero; layer x >= 1 (Eqn. 7) takes
// the best d = λ_x/μ_x copies of unit x, its d = 0 term being
// lbav(x-1, b′). When choice is non-nil (length s), choice[x][b′]
// records the smallest optimal d of each layer x >= 1.
func comboDP(bMax, k, s int, units []Unit, choice [][]int32) []int64 {
	prev := make([]int64, bMax+1)
	cap0 := units[0].CapPerMu
	failNum0 := failNumOf(units[0].Mu, k, 1)
	failDen0 := combin.Choose(s, 1)
	for bPrime := int64(1); bPrime <= int64(bMax); bPrime++ {
		copies := combin.CeilDiv(bPrime, cap0) // λ_0/μ_0
		prev[bPrime] = max(bPrime-failedFloor(copies, failNum0, failDen0, bPrime), 0)
	}
	cur := make([]int64, bMax+1)
	for x := 1; x < s; x++ {
		capX := units[x].CapPerMu
		failNum := failNumOf(units[x].Mu, k, x+1)
		failDen := combin.Choose(s, x+1)
		if choice != nil {
			choice[x] = make([]int32, bMax+1)
		}
		for bPrime := 0; bPrime <= bMax; bPrime++ {
			best, bestD := prev[bPrime], int64(0) // d = 0
			dMax := combin.CeilDiv(int64(bPrime), capX)
			for d := int64(1); d <= dMax; d++ {
				placed := d * capX
				v := min(int64(bPrime), placed) - failedFloor(d, failNum, failDen, int64(bPrime)+placed)
				if rest := int64(bPrime) - placed; rest > 0 {
					v += prev[rest]
				}
				if v > best {
					best, bestD = v, d
				}
			}
			cur[bPrime] = best
			if choice != nil {
				choice[x][bPrime] = int32(bestD)
			}
		}
		prev, cur = cur, prev
	}
	return prev
}

// DefaultUnits derives catalog-backed units for each x in 0..s-1 on n
// nodes with r replicas: the largest known Steiner order <= n per the
// design catalog (μ = 1), matching the paper's parameter selection
// (Sec. III-C, Fig. 4). When constructibleOnly is set, orders are limited
// to systems this repository can actually build, for materializing
// concrete placements.
func DefaultUnits(n, r, s int, constructibleOnly bool) ([]Unit, error) {
	if s < 1 || s > r || r > n {
		return nil, fmt.Errorf("placement: invalid unit parameters n=%d r=%d s=%d", n, r, s)
	}
	units := make([]Unit, s)
	for x := 0; x < s; x++ {
		t := x + 1
		var (
			nx int
			ok bool
		)
		switch {
		case t == 1:
			// Partition chunks: μ=1 requires r | n_0.
			nx, ok = (n/r)*r, n >= r
		case t == r:
			// Complete designs exist for every order.
			nx, ok = n, true
		case constructibleOnly:
			nx, ok = design.BestConstructibleOrder(t, r, n)
		default:
			nx, ok = design.BestKnownOrder(t, r, n)
		}
		if !ok {
			return nil, fmt.Errorf("placement: no %d-(·, %d, 1) order available <= %d", t, r, n)
		}
		capPerMu, integral := SimpleCapacity([]int{nx}, r, x, 1, 1)
		if !integral || capPerMu < 1 {
			return nil, fmt.Errorf("placement: order n_%d = %d gives non-integral capacity", x, nx)
		}
		units[x] = Unit{X: x, Mu: 1, CapPerMu: capPerMu}
	}
	return units, nil
}

// BuildDefaultCombo runs the full constructible pipeline — DefaultUnits,
// OptimizeCombo, BuildCombo — returning the materialized placement along
// with the optimized spec and its Lemma 3 bound. It is the one-call form
// used by the CLI and the experiment harness.
func BuildDefaultCombo(n, r, s, k, b int) (*Placement, ComboSpec, int64, error) {
	units, err := DefaultUnits(n, r, s, true)
	if err != nil {
		return nil, ComboSpec{}, 0, err
	}
	spec, bound, err := OptimizeCombo(b, k, s, units)
	if err != nil {
		return nil, ComboSpec{}, 0, err
	}
	pl, err := BuildCombo(n, r, spec, b, SimpleOptions{})
	if err != nil {
		return nil, ComboSpec{}, 0, err
	}
	return pl, spec, bound, nil
}

// BuildCombo materializes a concrete Combo placement of b objects on n
// nodes following spec: objects are assigned to Simple(x, λ_x)
// sub-placements from the largest x down (matching how the DP allocates
// capacity). All sub-placements share the same n nodes — overlaps between
// sub-placements do not affect the Lemma 3 bound, which sums worst cases.
func BuildCombo(n, r int, spec ComboSpec, b int, opts SimpleOptions) (*Placement, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Capacity() < int64(b) {
		return nil, fmt.Errorf("placement: spec capacity %d < b = %d (violates Eqn. 3)",
			spec.Capacity(), b)
	}
	pl := NewPlacement(n, r)
	remaining := int64(b)
	for x := len(spec.Lambdas) - 1; x >= 0 && remaining > 0; x-- {
		lambda := spec.Lambdas[x]
		if lambda == 0 {
			continue
		}
		u := spec.Units[x]
		quota := int64(lambda/u.Mu) * u.CapPerMu
		if quota > remaining {
			quota = remaining
		}
		sub, err := BuildSimple(n, r, x, lambda, int(quota), opts)
		if err != nil {
			return nil, fmt.Errorf("placement: Simple(%d, %d) sub-placement: %w", x, lambda, err)
		}
		pl.Objects = append(pl.Objects, sub.Objects...)
		remaining -= quota
	}
	if remaining > 0 {
		return nil, fmt.Errorf("placement: %d objects unplaced", remaining)
	}
	return pl, nil
}
