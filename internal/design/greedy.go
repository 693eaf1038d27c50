package design

import (
	"fmt"
	"math/rand"

	"repro/internal/combin"
)

// GreedyPacking builds a maximal t-(v, k, lambda) packing by randomized
// greedy search: random candidate blocks are added while they respect the
// packing property, followed by a completion sweep that tries to extend
// each under-covered t-subset into a block. The result is a valid packing
// (never a violation), deterministic for a given seed, but its capacity is
// generally below the design bound of Lemma 1.
//
// This is the documented fallback for Steiner orders with no implemented
// algebraic construction (orders SteinerExists accepts but the
// constructible catalog lacks, see catalog.go). maxBlocks <= 0 means
// unbounded.
func GreedyPacking(t, v, k, lambda int, seed int64, maxBlocks int64) (*Packing, error) {
	if t < 1 || k < t || v < k || lambda < 1 {
		return nil, fmt.Errorf("design: invalid greedy packing parameters t=%d v=%d k=%d lambda=%d",
			t, v, k, lambda)
	}
	bound := MaxBlocks(t, v, k, lambda)
	if maxBlocks > 0 && maxBlocks < bound {
		bound = maxBlocks
	}
	rng := rand.New(rand.NewSource(seed))
	counts := make(map[uint64]int)
	sub := make([]int, t)

	canAdd := func(b []int) bool {
		ok := true
		combin.ForEachSubset(len(b), t, func(idx []int) bool {
			for i, j := range idx {
				sub[i] = b[j]
			}
			if counts[encodeSubset(sub)] >= lambda {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	add := func(b []int) {
		combin.ForEachSubset(len(b), t, func(idx []int) bool {
			for i, j := range idx {
				sub[i] = b[j]
			}
			counts[encodeSubset(sub)]++
			return true
		})
	}

	var blocks [][]int
	// Phase 1: random candidate blocks until a long failure streak.
	failStreak := 0
	maxStreak := 50 * v
	candidate := make([]int, k)
	for int64(len(blocks)) < bound && failStreak < maxStreak {
		randomSubset(rng, v, candidate)
		sortBlock(candidate)
		if canAdd(candidate) {
			b := make([]int, k)
			copy(b, candidate)
			add(b)
			blocks = append(blocks, b)
			failStreak = 0
		} else {
			failStreak++
		}
	}
	// Phase 2: completion sweep. For every t-subset still under lambda,
	// try to grow it into an addable block.
	if int64(len(blocks)) < bound {
		base := make([]int, t)
		perm := rng.Perm(v)
		combin.ForEachSubset(v, t, func(idx []int) bool {
			for i, j := range idx {
				base[i] = perm[j]
			}
			sortBlock(base)
			if counts[encodeSubset(base)] >= lambda {
				return true
			}
			if b, ok := extendToBlock(base, v, k, canAdd, rng); ok {
				add(b)
				blocks = append(blocks, b)
			}
			return int64(len(blocks)) < bound
		})
	}
	return &Packing{V: v, K: k, T: t, Lambda: lambda, Blocks: blocks}, nil
}

// extendToBlock tries to grow the t-set base into a full k-block that
// canAdd accepts, trying points in random order with backtracking depth 1.
func extendToBlock(base []int, v, k int, canAdd func([]int) bool, rng *rand.Rand) ([]int, bool) {
	const attempts = 30
	in := make(map[int]bool, k)
	for a := 0; a < attempts; a++ {
		b := make([]int, len(base), k)
		copy(b, base)
		for key := range in {
			delete(in, key)
		}
		for _, pt := range base {
			in[pt] = true
		}
		for len(b) < k {
			pt := rng.Intn(v)
			if in[pt] {
				continue
			}
			b = append(b, pt)
			in[pt] = true
		}
		sortBlock(b)
		if canAdd(b) {
			return b, true
		}
	}
	return nil, false
}

// randomSubset fills dst with a uniformly random |dst|-subset of
// {0, ..., n-1} using partial Fisher-Yates on a virtual array.
func randomSubset(rng *rand.Rand, n int, dst []int) {
	k := len(dst)
	swapped := make(map[int]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		vi, ok := swapped[i]
		if !ok {
			vi = i
		}
		vj, ok := swapped[j]
		if !ok {
			vj = j
		}
		dst[i] = vj
		swapped[j] = vi
	}
}
