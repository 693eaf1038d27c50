package design

import (
	"fmt"
	"sort"

	"repro/internal/gf"
)

// The catalog encodes what is *known to exist* in design theory (used by
// the analytical experiments, which only need capacity formulas) and what
// this package can *actually construct* (used when concrete placements are
// materialized). The two sets differ: e.g. SQS(70) exists by Hanani's
// theorem but has no implemented construction here.
//
// All entries are Steiner systems, i.e. t-(v, k, 1) designs.

// knownThreeFive lists the orders v for which a 3-(v, 5, 1) design is
// known (the q = 4 spherical family 4^d + 1, plus 26 from Hanani, Hartman
// & Kramer's census of small 3-designs — the paper's Fig. 4 uses 26, 65
// and 257).
var knownThreeFive = []int{17, 26, 65, 257, 1025}

// knownFourFive lists the orders v for which an S(4, 5, v) is known: the
// derived designs of the 5-(q+1, 6, 1) family for prime powers
// q ≡ 3 (mod 4). Ostergard & Pottonen proved S(4, 5, 17) does not exist.
var knownFourFive = []int{11, 23, 47, 71, 83, 107, 131, 167, 243}

// SteinerExists reports whether a t-(v, k, 1) Steiner system is known to
// exist. Supported block sizes are 2 <= k <= 5 with 1 <= t <= k (the
// paper's replication range), and the degenerate t = 1 (partitions, which
// require k | v to be a true design) and t = k (complete designs).
func SteinerExists(t, v, k int) bool {
	if v < k || k < 1 || t < 1 || t > k {
		return false
	}
	if t == k {
		return true // every k-subset exactly once
	}
	if t == 1 {
		return v%k == 0
	}
	if v == k {
		return true // single block covers everything exactly once
	}
	switch {
	case t == 2 && k == 2:
		return true
	case t == 2 && k == 3:
		return v%6 == 1 || v%6 == 3
	case t == 2 && k == 4:
		return v%12 == 1 || v%12 == 4
	case t == 2 && k == 5:
		return v%20 == 1 || v%20 == 5
	case t == 3 && k == 4:
		return SQSExists(v)
	case t == 3 && k == 5:
		return containsInt(knownThreeFive, v)
	case t == 4 && k == 5:
		return containsInt(knownFourFive, v)
	default:
		return false
	}
}

// SteinerConstructible reports whether BuildSteiner can build a
// t-(v, k, 1) system.
func SteinerConstructible(t, v, k int) bool {
	if v < k || k < 1 || t < 1 || t > k {
		return false
	}
	if t == k || t == 1 || v == k {
		return true
	}
	switch {
	case t == 2 && k == 2:
		return true
	case t == 2 && k == 3:
		return v%6 == 1 || v%6 == 3
	case t == 2 && k == 4, t == 2 && k == 5:
		_, _, ok := lineGeometryFor(v, k)
		return ok
	case t == 3 && k == 4:
		return SQSConstructible(v)
	case t == 3 && k == 5:
		d, ok := sphericalDegree(v, 4)
		return ok && d >= 2 && v <= 1025
	default:
		return false
	}
}

// BuildSteiner constructs a t-(v, k, 1) Steiner system, dispatching to the
// algebraic construction families. It fails for parameters outside the
// constructible set; use GreedyPacking as the documented fallback.
func BuildSteiner(t, v, k int) (*Packing, error) {
	if !SteinerConstructible(t, v, k) {
		return nil, fmt.Errorf("design: no implemented construction for %d-(%d, %d, 1)", t, v, k)
	}
	switch {
	case t == 1:
		return Partition(v, k)
	case v == k:
		p, err := Complete(v, k, 0)
		if err != nil {
			return nil, err
		}
		// A single all-points block (or the complete design at v == k)
		// covers each t-subset exactly once; re-declare at strength t.
		p.T = t
		return p, nil
	case t == k:
		return Complete(v, k, 0)
	case t == 2 && k == 2:
		return AllPairs(v)
	case t == 2 && k == 3:
		return SteinerTriple(v)
	case t == 2 && (k == 4 || k == 5):
		kind, d, _ := lineGeometryFor(v, k)
		if kind == geomAffine {
			return AGLines(d, k)
		}
		return PGLines(d, k-1)
	case t == 3 && k == 4:
		return SQS(v)
	case t == 3 && k == 5:
		d, _ := sphericalDegree(v, 4)
		return Spherical(4, d)
	default:
		return nil, fmt.Errorf("design: no implemented construction for %d-(%d, %d, 1)", t, v, k)
	}
}

// BestKnownOrder returns the largest v <= maxV for which a t-(v, k, 1)
// system is known to exist.
func BestKnownOrder(t, k, maxV int) (int, bool) {
	for v := maxV; v >= k; v-- {
		if SteinerExists(t, v, k) {
			return v, true
		}
	}
	return 0, false
}

// BestConstructibleOrder returns the largest v <= maxV for which
// BuildSteiner has a construction.
func BestConstructibleOrder(t, k, maxV int) (int, bool) {
	for v := maxV; v >= k; v-- {
		if SteinerConstructible(t, v, k) {
			return v, true
		}
	}
	return 0, false
}

type geometryKind int

const (
	geomAffine geometryKind = iota + 1
	geomProjective
)

// lineGeometryFor decides whether v points with block size k match an
// affine line design (v = k^d, k a prime power) or a projective line
// design (v = ((k-1)^(d+1) - 1) / (k - 2), k-1 a prime power), returning
// the dimension d.
func lineGeometryFor(v, k int) (geometryKind, int, bool) {
	if gf.IsPrimePower(k) {
		size := k * k
		for d := 2; size <= 1<<20; d++ {
			if size == v {
				return geomAffine, d, true
			}
			size *= k
		}
	}
	q := k - 1
	if gf.IsPrimePower(q) {
		// PG(d, q) has 1 + q + q^2 + ... + q^d points.
		size := 1 + q + q*q
		power := q * q
		for d := 2; size <= 1<<20; d++ {
			if size == v {
				return geomProjective, d, true
			}
			power *= q
			size += power
		}
	}
	return 0, 0, false
}

// sphericalDegree reports d such that v = q^d + 1.
func sphericalDegree(v, q int) (int, bool) {
	size := q
	for d := 1; size <= 1<<20; d++ {
		if size+1 == v {
			return d, true
		}
		size *= q
	}
	return 0, false
}

func containsInt(xs []int, v int) bool {
	i := sort.SearchInts(xs, v)
	return i < len(xs) && xs[i] == v
}
