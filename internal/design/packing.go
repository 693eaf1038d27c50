// Package design implements combinatorial block designs: t-(v, k, λ)
// packings and designs, with real algebraic constructions for the infinite
// families used by the paper (Steiner triple systems, quadruple systems,
// affine and projective line designs, spherical/Möbius designs), a greedy
// fallback packing builder for orders with no implemented construction, and
// an existence catalog encoding the known design spectra.
//
// A t-(v, k, λ) packing is a collection of k-element blocks over the point
// set {0, ..., v-1} such that every t-subset of points is contained in at
// most λ blocks. When every t-subset is contained in exactly λ blocks the
// packing is a t-design (for λ = 1, a Steiner system). The paper's
// Simple(x, λ) placement is exactly an (x+1)-(n, r, λ) packing whose blocks
// are the replica sets of objects.
package design

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/combin"
)

// Packing is a t-(V, K, Lambda) packing. Blocks hold sorted, distinct
// point indices in [0, V).
type Packing struct {
	V      int     // number of points
	K      int     // block size
	T      int     // subset size being packed
	Lambda int     // maximum multiplicity of any t-subset
	Blocks [][]int // the blocks
}

// MaxBlocks returns the packing bound of Lemma 1:
// floor(Lambda * C(V, T) / C(K, T)), the largest number of blocks any
// t-(V, K, Lambda) packing can have.
func (p *Packing) MaxBlocks() int64 {
	return MaxBlocks(p.T, p.V, p.K, p.Lambda)
}

// MaxBlocks returns floor(lambda * C(v, t) / C(k, t)), saturating at
// math.MaxInt64 when the numerator overflows int64: the Lemma 1 value
// is an UPPER bound on packable blocks, so an overflow must read as
// "astronomically many", never as 0 (which would claim nothing packs).
func MaxBlocks(t, v, k, lambda int) int64 {
	den := combin.ChooseOrHuge(k, t)
	if den == 0 {
		return 0
	}
	num := combin.ChooseOrHuge(v, t)
	if lambda > 0 && num > math.MaxInt64/int64(lambda) {
		return math.MaxInt64
	}
	return combin.FloorDiv(int64(lambda)*num, den)
}

// DesignBlocks returns the exact number of blocks of a t-(v, k, lambda)
// design: lambda * C(v, t) / C(k, t). The second result reports whether
// the division is exact (a necessary condition for the design to
// exist); an int64 overflow anywhere reports false — exactness cannot
// be verified, and the old Choose-is-0 path silently claimed an exact
// zero-block design instead.
func DesignBlocks(t, v, k, lambda int) (int64, bool) {
	c, err := combin.Binomial(v, t)
	if err != nil {
		return 0, false
	}
	den := combin.Choose(k, t)
	if den == 0 || (lambda > 0 && c > math.MaxInt64/int64(lambda)) {
		return 0, false
	}
	num := int64(lambda) * c
	if num%den != 0 {
		return 0, false
	}
	return num / den, true
}

// Admissible reports whether the standard divisibility conditions for the
// existence of a t-(v, k, lambda) design hold: for every 0 <= i < t,
// lambda * C(v-i, t-i) must be divisible by C(k-i, t-i). Overflowing
// parameters report false — the conditions cannot be verified, which
// must not read as "they hold".
func Admissible(t, v, k, lambda int) bool {
	if v < k || k < t || t < 1 || lambda < 1 {
		return false
	}
	for i := 0; i < t; i++ {
		c, err := combin.Binomial(v-i, t-i)
		if err != nil {
			return false
		}
		den := combin.Choose(k-i, t-i)
		if den == 0 || c > math.MaxInt64/int64(lambda) {
			return false
		}
		if (int64(lambda)*c)%den != 0 {
			return false
		}
	}
	return true
}

// Validate checks structural integrity and the packing property: block
// sizes, point ranges, sortedness, and that no t-subset occurs in more than
// Lambda blocks. It is exhaustive and therefore intended for tests and
// construction-time verification, not hot paths.
func (p *Packing) Validate() error {
	if p.T < 1 || p.K < p.T || p.V < p.K {
		return fmt.Errorf("design: invalid parameters t=%d k=%d v=%d", p.T, p.K, p.V)
	}
	if p.Lambda < 1 {
		return fmt.Errorf("design: invalid lambda %d", p.Lambda)
	}
	for bi, b := range p.Blocks {
		if len(b) != p.K {
			return fmt.Errorf("design: block %d has size %d, want %d", bi, len(b), p.K)
		}
		for i, pt := range b {
			if pt < 0 || pt >= p.V {
				return fmt.Errorf("design: block %d point %d out of range [0, %d)", bi, pt, p.V)
			}
			if i > 0 && b[i-1] >= pt {
				return fmt.Errorf("design: block %d not strictly sorted", bi)
			}
		}
	}
	counts := p.coverageCounts()
	for key, c := range counts {
		if c > p.Lambda {
			return fmt.Errorf("design: %d-subset %v covered %d times, max %d",
				p.T, decodeSubsetKey(key, p.T), c, p.Lambda)
		}
	}
	return nil
}

// IsDesign reports whether the packing is a t-design, i.e. every t-subset
// of points is covered exactly Lambda times. The packing must Validate
// first; IsDesign assumes structural integrity.
func (p *Packing) IsDesign() bool {
	want, exact := DesignBlocks(p.T, p.V, p.K, p.Lambda)
	if !exact || int64(len(p.Blocks)) != want {
		return false
	}
	counts := p.coverageCounts()
	// Every covered subset must be covered exactly Lambda times, and the
	// number of covered subsets must equal C(V, T).
	total := combin.Choose(p.V, p.T)
	if int64(len(counts)) != total {
		return false
	}
	for _, c := range counts {
		if c != p.Lambda {
			return false
		}
	}
	return true
}

// coverageCounts maps each covered t-subset (encoded) to its multiplicity.
func (p *Packing) coverageCounts() map[uint64]int {
	counts := make(map[uint64]int)
	sub := make([]int, p.T)
	for _, b := range p.Blocks {
		combin.ForEachSubset(len(b), p.T, func(idx []int) bool {
			for i, j := range idx {
				sub[i] = b[j]
			}
			counts[encodeSubset(sub)]++
			return true
		})
	}
	return counts
}

// encodeSubset packs up to five sorted point indices (< 4096) into a
// uint64 key. All designs in this repository satisfy these bounds.
func encodeSubset(s []int) uint64 {
	var key uint64
	for _, pt := range s {
		key = key<<12 | uint64(pt+1)
	}
	return key
}

func decodeSubsetKey(key uint64, t int) []int {
	out := make([]int, t)
	for i := t - 1; i >= 0; i-- {
		out[i] = int(key&0xfff) - 1
		key >>= 12
	}
	return out
}

// sortBlock sorts a block in place and returns it.
func sortBlock(b []int) []int {
	sort.Ints(b)
	return b
}
