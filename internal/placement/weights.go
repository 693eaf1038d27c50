package placement

import (
	"fmt"
	"math"

	"repro/internal/topology"
)

// This file derives per-object weights from a topology's per-node
// weights, the bridge between heterogeneous clusters (hot nodes serving
// more traffic than cold ones) and the weighted adversary engines
// (adversary.SearchOpts.ObjWeights), which maximize lost WEIGHT instead
// of lost object count.

// ObjectWeights derives a per-object weight vector from topo's node
// weights: an object's weight is the MAXIMUM weight among the nodes
// hosting its replicas — the traffic an object serves is dominated by
// its hottest host, so losing it costs that host's weight. With unit
// node weights every object weighs 1 and weighted damage degenerates to
// the plain object count; ObjectWeights then returns nil (the engines'
// unit-weight convention), so unweighted topologies take the exact
// unweighted code paths. Node weights heavy enough to overflow the
// weighted loads fail with a *WeightOverflowError (see
// CheckWeightTotal).
//
// The weights depend on the placement's labeling: relabeling moves
// objects on and off the hot nodes, which is exactly what a
// weighted-aware spreading pass (SpreadOpts.Weighted) exploits.
func ObjectWeights(pl *Placement, topo *topology.Topology) ([]int64, error) {
	if topo.N != pl.N {
		return nil, fmt.Errorf("placement: topology covers %d nodes, placement has %d", topo.N, pl.N)
	}
	if !topo.Weighted() {
		return nil, nil
	}
	w := make([]int64, pl.B())
	var buf []int
	for obj, o := range pl.Objects {
		buf = o.Members(buf[:0])
		maxW := 1
		for _, nd := range buf {
			if nw := topo.Weight(nd); nw > maxW {
				maxW = nw
			}
		}
		w[obj] = int64(maxW)
	}
	if err := CheckWeightTotal(w, pl.R); err != nil {
		return nil, err
	}
	return w, nil
}

// WeightOverflowError reports a per-object weight vector whose
// weighted replica total r·Σw exceeds MaxInt64. Every weighted load
// Σ C·w the search runs on — per candidate, prefix sums, gains and
// overlaps — is bounded by that total, so such a vector would wrap the
// int64 loads and silently mis-order the candidates.
type WeightOverflowError struct {
	R   int // replication factor of the placement
	Obj int // first object at which the running total exceeds MaxInt64/R
}

func (e *WeightOverflowError) Error() string {
	return fmt.Sprintf("placement: object weights overflow int64: r·Σw exceeds %d at object %d (r = %d)",
		int64(math.MaxInt64), e.Obj, e.R)
}

// CheckWeightTotal rejects a non-negative weight vector whose weighted
// replica total r·Σw exceeds MaxInt64, with a *WeightOverflowError. A
// nil vector (unit weights) always passes.
func CheckWeightTotal(w []int64, r int) error {
	limit := int64(math.MaxInt64) / int64(max(r, 1))
	var sum int64
	for obj, v := range w {
		if v > limit-sum {
			return &WeightOverflowError{R: r, Obj: obj}
		}
		sum += v
	}
	return nil
}

// SumWeights returns the total weight of b objects under w — the
// weighted analogue of the object count b, and the "b" of weighted
// availability (total weight − lost weight). A nil w means unit
// weights, so the sum is b itself.
func SumWeights(w []int64, b int) int64 {
	if w == nil {
		return int64(b)
	}
	var sum int64
	for _, v := range w {
		sum += v
	}
	return sum
}
