package placement

// Canonical placement signatures: the memo key incremental adversary
// sessions (internal/adversary) cache exact damage under, and the key
// the spread pass deduplicates its candidates by. Two placements collide only if
// both 64-bit FNV-style streams collide, and the stream is canonical
// by construction — objects in index order, each object's replica set
// ascending (the bitset order ReplicaNodes already guarantees) — so
// two placements assigning the same replica sets hash identically no
// matter how they were built or mutated.

// Sig is a 128-bit canonical placement signature.
type Sig struct {
	Lo, Hi uint64
}

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
	// The second stream runs the same mixing from an unrelated offset
	// (digits of e) so a collision must defeat both.
	altOffset64 = 0xadf85458a2bb4a9a
)

func mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime64 }

// Signature returns the canonical signature of the placement's replica
// assignment (shape included). Cost is O(b·r); recomputing it per
// evaluation is noise next to any search.
func Signature(pl *Placement) Sig {
	sig, _ := SignatureScratch(pl, nil)
	return sig
}

// SignatureScratch is Signature with a caller-provided members scratch
// buffer, returned (possibly grown) for reuse — the allocation-free
// variant for hot memo-lookup paths that hash per probe.
func SignatureScratch(pl *Placement, buf []int) (Sig, []int) {
	lo, hi := SigSeed()
	lo, hi = sigInt(lo, hi, pl.N)
	lo, hi = sigInt(lo, hi, pl.R)
	for _, o := range pl.Objects {
		buf = o.Members(buf[:0])
		for _, nd := range buf {
			lo, hi = sigInt(lo, hi, nd)
		}
		// Object separator: replica sets never contain N, so streams
		// cannot be confused across object boundaries.
		lo, hi = sigInt(lo, hi, pl.N)
	}
	return Sig{Lo: lo, Hi: hi}, buf
}

// SigSeed returns the two stream offsets, for callers folding extra
// state (per-object weights, engine parameters) into a signature with
// SigInt64.
func SigSeed() (lo, hi uint64) { return fnvOffset64, altOffset64 }

// SigInt64 folds one 64-bit value into both signature streams.
func SigInt64(s Sig, v int64) Sig {
	return Sig{Lo: mix(s.Lo, uint64(v)), Hi: mix(s.Hi, uint64(v))}
}

func sigInt(lo, hi uint64, v int) (uint64, uint64) {
	return mix(lo, uint64(v)), mix(hi, uint64(v))
}

// WeightSignature folds a per-object weight vector into a signature
// (distinguishing nil — unit weights — from any explicit vector), so
// weighted evaluations memoize per (placement, weights) pair.
func WeightSignature(s Sig, w []int64) Sig {
	if w == nil {
		return SigInt64(s, -1)
	}
	s = SigInt64(s, int64(len(w)))
	for _, v := range w {
		s = SigInt64(s, v)
	}
	return s
}
