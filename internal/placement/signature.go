package placement

// Placement keys: the memo key incremental adversary sessions
// (internal/adversary) cache exact damage under, and the key the spread
// pass deduplicates its candidates by. A key is the XOR, over every
// replica, of a keyed per-(object, node) term on two independent 64-bit
// lanes (Zobrist hashing), XORed with one term for the per-object
// weight vector. XOR is order-independent, so two placements assigning
// the same replica sets get the same key however they were built or
// mutated, and a one-replica move updates a key in O(1) (Sig.Move)
// instead of rehashing all b·r replicas. Two (placement, weights) pairs
// collide only if both lanes collide. Keys compare placements of one
// shape (node count and object count); the shape itself is not hashed.

// Sig is a 128-bit placement key.
type Sig struct {
	Lo, Hi uint64
}

// Lane keys: arbitrary constants (digits of π and e) that make the
// two lanes' terms unrelated functions of the same (object, node) pair.
const (
	laneKeyLo = 0x243f6a8885a308d3
	laneKeyHi = 0xadf85458a2bb4a9a
)

// mixLo is the splitmix64 finalizer and mixHi murmur3's fmix64: two
// different bijections of uint64, so each lane maps distinct inputs to
// distinct terms and the lanes do not share structure.
func mixLo(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func mixHi(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// replicaTerm is the key term of one replica of obj on node. The
// (object, node) pair packs injectively for indices below 2^32.
func replicaTerm(obj, node int) Sig {
	x := uint64(obj)<<32 | uint64(uint32(node))
	return Sig{Lo: mixLo(x ^ laneKeyLo), Hi: mixHi(x ^ laneKeyHi)}
}

// weightTerm is the key term of a per-object weight vector, a chained
// hash of its length and entries that tells nil (unit weights) apart
// from any explicit vector, so weighted evaluations key per
// (placement, weights) pair.
func weightTerm(w []int64) Sig {
	n := uint64(len(w))
	if w == nil {
		n = ^uint64(0) // a length no vector has
	}
	s := Sig{Lo: mixLo(n ^ laneKeyHi), Hi: mixHi(n ^ laneKeyLo)}
	for _, v := range w {
		s = Sig{Lo: mixLo(s.Lo ^ uint64(v)), Hi: mixHi(s.Hi ^ uint64(v))}
	}
	return s
}

// Signature returns the key of pl under the per-object weights w (nil
// means unit weights). Cost is O(b·r + b); keep a key current across
// moves with Sig.Move instead of recomputing it.
func Signature(pl *Placement, w []int64) Sig {
	s := weightTerm(w)
	var stack [8]int // replica sets up to r = 8 list without allocating
	buf := stack[:0]
	for obj, o := range pl.Objects {
		buf = o.Members(buf[:0])
		for _, nd := range buf {
			t := replicaTerm(obj, nd)
			s.Lo ^= t.Lo
			s.Hi ^= t.Hi
		}
	}
	return s
}

// Move returns the key after one replica of obj moves from node from to
// node to: the (obj, from) term XORs out and the (obj, to) term XORs in.
// It is its own inverse, so s.Move(o, a, b).Move(o, b, a) == s.
func (s Sig) Move(obj, from, to int) Sig {
	f, t := replicaTerm(obj, from), replicaTerm(obj, to)
	return Sig{Lo: s.Lo ^ f.Lo ^ t.Lo, Hi: s.Hi ^ f.Hi ^ t.Hi}
}
