// Package gf implements arithmetic in small finite fields GF(p^m).
//
// The block-design constructions in internal/design (affine and projective
// line designs, spherical/Möbius designs) are algebraic: their points and
// blocks are coordinates over a finite field. Fields here are small (the
// paper needs at most a few hundred elements), so elements are represented
// as ints in [0, q) whose base-p digits are the polynomial coefficients of
// the element over the prime subfield, and multiplication uses exp/log
// tables built from a multiplicative generator.
package gf

import (
	"errors"
	"fmt"
)

// MaxOrder bounds the field sizes this package will construct. It is far
// above anything the designs in this repository need, while keeping table
// construction trivially cheap.
const MaxOrder = 1 << 16

// Field is a finite field GF(q) with q = P^M elements. Elements are the
// integers 0..Q-1; 0 and 1 are the additive and multiplicative identities.
type Field struct {
	P int // characteristic (prime)
	M int // extension degree
	Q int // order, P^M

	irred []int // monic irreducible polynomial of degree M (coefficients, len M+1), nil when M == 1
	exp   []int // exp[i] = g^i for i in [0, 2(Q-1))
	log   []int // log[a] for a in [1, Q)
	gen   int   // a multiplicative generator
}

// New constructs GF(q). It returns an error unless q is a prime power with
// 2 <= q <= MaxOrder.
func New(q int) (*Field, error) {
	p, m, ok := PrimePower(q)
	if !ok {
		return nil, fmt.Errorf("gf: %d is not a prime power", q)
	}
	if q > MaxOrder {
		return nil, fmt.Errorf("gf: order %d exceeds MaxOrder %d", q, MaxOrder)
	}
	f := &Field{P: p, M: m, Q: q}
	if m > 1 {
		irred, err := findIrreducible(p, m)
		if err != nil {
			return nil, err
		}
		f.irred = irred
	}
	if err := f.buildTables(); err != nil {
		return nil, err
	}
	return f, nil
}

// Add returns a + b.
func (f *Field) Add(a, b int) int {
	if f.M == 1 {
		return (a + b) % f.P
	}
	// Digit-wise addition mod p.
	sum := 0
	mult := 1
	for i := 0; i < f.M; i++ {
		da := a % f.P
		db := b % f.P
		a /= f.P
		b /= f.P
		sum += ((da + db) % f.P) * mult
		mult *= f.P
	}
	return sum
}

// Neg returns -a.
func (f *Field) Neg(a int) int {
	if f.M == 1 {
		return (f.P - a%f.P) % f.P
	}
	neg := 0
	mult := 1
	for i := 0; i < f.M; i++ {
		d := a % f.P
		a /= f.P
		neg += ((f.P - d) % f.P) * mult
		mult *= f.P
	}
	return neg
}

// Sub returns a - b.
func (f *Field) Sub(a, b int) int { return f.Add(a, f.Neg(b)) }

// Mul returns a * b.
func (f *Field) Mul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Inv returns the multiplicative inverse of a, or an error if a == 0.
func (f *Field) Inv(a int) (int, error) {
	if a == 0 {
		return 0, errors.New("gf: inverse of zero")
	}
	return f.exp[(f.Q-1)-f.log[a]], nil
}

// Div returns a / b, or an error if b == 0.
func (f *Field) Div(a, b int) (int, error) {
	inv, err := f.Inv(b)
	if err != nil {
		return 0, err
	}
	return f.Mul(a, inv), nil
}

// Pow returns a^e for e >= 0, with 0^0 = 1.
func (f *Field) Pow(a int, e int) int {
	if e < 0 {
		panic("gf: negative exponent")
	}
	if a == 0 {
		if e == 0 {
			return 1
		}
		return 0
	}
	idx := (f.log[a] * (e % (f.Q - 1))) % (f.Q - 1)
	return f.exp[idx]
}

// buildTables finds a multiplicative generator and fills the exp/log
// tables. Multiplication during table construction uses polynomial
// arithmetic directly.
func (f *Field) buildTables() error {
	mulSlow := func(a, b int) int {
		if f.M == 1 {
			return a * b % f.P
		}
		return f.polyMulMod(a, b)
	}
	// Factor q-1 to test element orders.
	factors := primeFactors(f.Q - 1)
	isGenerator := func(g int) bool {
		for _, pf := range factors {
			if powSlow(f, g, (f.Q-1)/pf, mulSlow) == 1 {
				return false
			}
		}
		return true
	}
	gen := 0
	for g := 2; g < f.Q; g++ {
		if isGenerator(g) {
			gen = g
			break
		}
	}
	if gen == 0 {
		if f.Q == 2 {
			gen = 1
		} else {
			return fmt.Errorf("gf: no generator found for GF(%d)", f.Q)
		}
	}
	f.gen = gen
	f.exp = make([]int, 2*(f.Q-1))
	f.log = make([]int, f.Q)
	cur := 1
	for i := 0; i < f.Q-1; i++ {
		f.exp[i] = cur
		f.exp[i+f.Q-1] = cur
		f.log[cur] = i
		cur = mulSlow(cur, gen)
	}
	if cur != 1 {
		return fmt.Errorf("gf: generator %d has wrong order in GF(%d)", gen, f.Q)
	}
	return nil
}

// polyMulMod multiplies two elements of GF(p^m) in their polynomial
// representation, reducing modulo the irreducible polynomial.
func (f *Field) polyMulMod(a, b int) int {
	// Expand to coefficient vectors.
	da := digits(a, f.P, f.M)
	db := digits(b, f.P, f.M)
	prod := make([]int, 2*f.M-1)
	for i, ca := range da {
		if ca == 0 {
			continue
		}
		for j, cb := range db {
			prod[i+j] = (prod[i+j] + ca*cb) % f.P
		}
	}
	// Reduce modulo the irreducible polynomial (monic, degree M).
	for d := len(prod) - 1; d >= f.M; d-- {
		c := prod[d]
		if c == 0 {
			continue
		}
		// Subtract c * x^(d-M) * irred; the j = M term cancels prod[d].
		for j := 0; j <= f.M; j++ {
			idx := d - f.M + j
			prod[idx] = ((prod[idx]-c*f.irred[j])%f.P + f.P) % f.P
		}
	}
	out := 0
	mult := 1
	for i := 0; i < f.M; i++ {
		out += prod[i] * mult
		mult *= f.P
	}
	return out
}

func powSlow(f *Field, a, e int, mul func(int, int) int) int {
	result := 1
	base := a
	for e > 0 {
		if e&1 == 1 {
			result = mul(result, base)
		}
		base = mul(base, base)
		e >>= 1
	}
	return result
}

func digits(a, p, m int) []int {
	d := make([]int, m)
	for i := 0; i < m; i++ {
		d[i] = a % p
		a /= p
	}
	return d
}

// PrimePower reports whether q = p^m for a prime p and m >= 1, returning
// the decomposition.
func PrimePower(q int) (p, m int, ok bool) {
	if q < 2 {
		return 0, 0, false
	}
	for d := 2; d*d <= q; d++ {
		if q%d == 0 {
			// d is the smallest prime factor; q must be a power of d.
			m := 0
			for q > 1 {
				if q%d != 0 {
					return 0, 0, false
				}
				q /= d
				m++
			}
			return d, m, true
		}
	}
	return q, 1, true // q itself is prime
}

// IsPrimePower reports whether q is a prime power >= 2.
func IsPrimePower(q int) bool {
	_, _, ok := PrimePower(q)
	return ok
}

func primeFactors(n int) []int {
	var factors []int
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			factors = append(factors, d)
			for n%d == 0 {
				n /= d
			}
		}
	}
	if n > 1 {
		factors = append(factors, n)
	}
	return factors
}

// findIrreducible returns a monic irreducible polynomial of degree m over
// GF(p) as a coefficient slice c[0..m] with c[m] = 1 (c[i] multiplies x^i).
func findIrreducible(p, m int) ([]int, error) {
	// Enumerate monic polynomials by their lower coefficients encoded in
	// base p, and trial-divide by all monic polynomials of degree
	// 1..m/2 (sufficient for irreducibility of small degrees).
	total := 1
	for i := 0; i < m; i++ {
		total *= p
	}
	for enc := 0; enc < total; enc++ {
		poly := digits(enc, p, m)
		poly = append(poly, 1) // monic
		if poly[0] == 0 {
			continue // divisible by x
		}
		if isIrreducible(poly, p) {
			return poly, nil
		}
	}
	return nil, fmt.Errorf("gf: no irreducible polynomial of degree %d over GF(%d)", m, p)
}

// isIrreducible tests irreducibility of a monic polynomial over GF(p) by
// trial division by all monic polynomials of degree up to deg/2.
func isIrreducible(poly []int, p int) bool {
	deg := len(poly) - 1
	for d := 1; d <= deg/2; d++ {
		count := 1
		for i := 0; i < d; i++ {
			count *= p
		}
		for enc := 0; enc < count; enc++ {
			div := digits(enc, p, d)
			div = append(div, 1) // monic of degree d
			if polyDivides(div, poly, p) {
				return false
			}
		}
	}
	return true
}

// polyDivides reports whether div divides poly over GF(p). Both are monic.
func polyDivides(div, poly []int, p int) bool {
	rem := make([]int, len(poly))
	copy(rem, poly)
	dd := len(div) - 1
	for d := len(rem) - 1; d >= dd; d-- {
		c := rem[d]
		if c == 0 {
			continue
		}
		for j := 0; j <= dd; j++ {
			idx := d - dd + j
			rem[idx] = ((rem[idx]-c*div[j])%p + p) % p
		}
	}
	for _, c := range rem {
		if c != 0 {
			return false
		}
	}
	return true
}
