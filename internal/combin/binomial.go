// Package combin provides the combinatorial substrate used throughout the
// repository: exact and log-space binomial coefficients, numerically stable
// binomial tail probabilities, lexicographic k-subset enumeration, and
// dense bitsets with fast intersection counting.
//
// Every quantity in the paper's analysis (capacities of t-packings,
// availability lower bounds, the vulnerability of random placement) reduces
// to expressions over binomial coefficients; this package is the single
// source of truth for those primitives.
package combin

import (
	"errors"
	"math"
)

// ErrOverflow reports that an exact integer computation would exceed the
// range of int64.
var ErrOverflow = errors.New("combin: int64 overflow")

// Binomial returns the binomial coefficient C(n, k) exactly.
//
// Following the standard convention it returns 0 (and no error) when k < 0
// or k > n. Negative n is rejected. If the exact value does not fit in an
// int64, Binomial returns ErrOverflow.
func Binomial(n, k int) (int64, error) {
	if n < 0 {
		return 0, errors.New("combin: negative n")
	}
	if k < 0 || k > n {
		return 0, nil
	}
	if k > n-k {
		k = n - k
	}
	// Multiplicative formula, keeping intermediate values exact:
	// C(n, i) = C(n, i-1) * (n - i + 1) / i, which always divides evenly.
	var result int64 = 1
	for i := 1; i <= k; i++ {
		factor := int64(n - i + 1)
		if result > math.MaxInt64/factor {
			// The multiplication may still be fine after the division,
			// so retry with the divide-first split via GCD reduction.
			r, err := binomialCareful(n, k)
			if err != nil {
				return 0, err
			}
			return r, nil
		}
		result = result * factor / int64(i)
	}
	return result, nil
}

// binomialCareful computes C(n, k) with per-step GCD reduction so that it
// only fails when the true result overflows int64.
func binomialCareful(n, k int) (int64, error) {
	var result int64 = 1
	for i := 1; i <= k; i++ {
		num := int64(n - i + 1)
		den := int64(i)
		g := gcd64(result, den)
		r := result / g
		den /= g
		g = gcd64(num, den)
		num /= g
		den /= g
		if den != 1 {
			// Cannot happen: C(n, i) is integral, so after reducing against
			// both factors the denominator must cancel.
			return 0, errors.New("combin: internal error in binomial reduction")
		}
		if r > math.MaxInt64/num {
			return 0, ErrOverflow
		}
		result = r * num
	}
	return result, nil
}

// Choose returns C(n, k), or 0 if the value is undefined or overflows.
// It is a convenience wrapper for call sites that have already validated
// their parameter ranges; prefer Binomial when overflow must be
// detected, and ChooseOrHuge when the value feeds a budget comparison
// or an upper bound — a 0 there silently reads as "tiny", the exact
// opposite of an overflow.
func Choose(n, k int) int64 {
	v, err := Binomial(n, k)
	if err != nil {
		return 0
	}
	return v
}

// ChooseOrHuge returns C(n, k), saturating at math.MaxInt64 when the
// exact value overflows int64. This is the right form wherever the
// binomial is compared against an enumeration budget or used as an
// upper bound: an overflowed C(n, k) means "astronomically many",
// never "zero", so budget guards built on Choose's 0 convention would
// treat the largest instances as the cheapest. Undefined values (k < 0,
// k > n) still return 0, matching Choose.
func ChooseOrHuge(n, k int) int64 {
	v, err := Binomial(n, k)
	if err != nil {
		if errors.Is(err, ErrOverflow) {
			return math.MaxInt64
		}
		return 0
	}
	return v
}

// LogBinomial returns ln C(n, k). It returns math.Inf(-1) when k < 0 or
// k > n (i.e. ln 0), matching the convention of Binomial.
func LogBinomial(n, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// CeilDiv returns ceil(a / b) for b > 0.
func CeilDiv(a, b int64) int64 {
	if a <= 0 {
		return -((-a) / b)
	}
	return (a + b - 1) / b
}

// FloorDiv returns floor(a / b) for b > 0.
func FloorDiv(a, b int64) int64 {
	if a < 0 {
		return -CeilDiv(-a, b)
	}
	return a / b
}
