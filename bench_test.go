// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per figure, each driving the matching
// internal/experiments generator), plus ablation benchmarks for the
// design choices (Combo's DP versus the best single Simple, the three
// attack engines, the pruning bound) and micro-benchmarks of the hot
// primitives.
//
// Run everything:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/capacity"
	"repro/internal/combin"
	"repro/internal/design"
	"repro/internal/experiments"
	"repro/internal/placement"
	"repro/internal/randplace"
	"repro/internal/search"
	"repro/internal/topology"
)

// ---------------------------------------------------------------------------
// One benchmark per paper figure.
// ---------------------------------------------------------------------------

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig2(experiments.Fig2Opts{})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderFig2(io.Discard, points); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig3(experiments.Fig3Opts{})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderFig3(io.Discard, points); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries, err := experiments.Fig4(nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderFig4(io.Discard, entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Fig5(experiments.Fig5Opts{})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderFig5(io.Discard, curves); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Fig6(experiments.Fig5Opts{})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderFig5(io.Discard, curves); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig7(experiments.Fig7Opts{
			Trials: 2,
			Bs:     []int{150, 300},
			Configs: []struct{ N, R, S, KLo, KHi int }{
				{31, 5, 3, 3, 4},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderFig7(io.Discard, points); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig8(experiments.Fig8Opts{})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderFig8(io.Discard, points); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(experiments.Fig9Opts{N: 71})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(experiments.Fig9Opts{N: 257})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{31, 71, 257} {
			cells, err := experiments.Fig10(experiments.Fig10Opts{N: n})
			if err != nil {
				b.Fatal(err)
			}
			if err := experiments.RenderFig10(io.Discard, cells); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RenderFig11(io.Discard, experiments.Fig11(0)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigDomains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.DomainTable(experiments.DomainOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderDomainTable(io.Discard, cells); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem1 sweeps the c-competitiveness constants across the
// paper's parameter grid (the analytical content of Theorem 1).
func BenchmarkTheorem1(b *testing.B) {
	sink := 0.0
	for i := 0; i < b.N; i++ {
		for _, n := range []int{31, 71, 257} {
			for r := 2; r <= 5; r++ {
				for s := 1; s <= r; s++ {
					for x := 0; x < s; x++ {
						for k := s; k <= 8; k++ {
							c, alpha, ok := placement.CompetitiveConstants(n, r, s, k, x, 1)
							if ok {
								sink += c + alpha
							}
						}
					}
				}
			}
		}
	}
	if sink == 0 {
		b.Fatal("no competitive constants computed")
	}
}

// ---------------------------------------------------------------------------
// Ablations of the design choices.
// ---------------------------------------------------------------------------

// BenchmarkAblationComboVsSimple quantifies what the DP buys over the
// best single Simple(x, λ): availability bound per unit of work.
func BenchmarkAblationComboVsSimple(b *testing.B) {
	units, err := placement.DefaultUnits(71, 5, 3, false)
	if err != nil {
		b.Fatal(err)
	}
	var comboLB, simpleLB int64
	b.Run("combo-dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, lb, err := placement.OptimizeCombo(9600, 5, 3, units)
			if err != nil {
				b.Fatal(err)
			}
			comboLB = lb
		}
	})
	b.Run("best-single-simple", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			best := int64(math.MinInt64)
			for _, u := range units {
				lambda, err := placement.MinimalLambda(9600, u.CapPerMu, u.Mu)
				if err != nil {
					b.Fatal(err)
				}
				if lb := placement.LBAvailSimple(9600, 5, 3, u.X, lambda); lb > best {
					best = lb
				}
			}
			simpleLB = best
		}
	})
	if comboLB < simpleLB {
		b.Fatalf("DP bound %d below best simple %d", comboLB, simpleLB)
	}
	b.ReportMetric(float64(comboLB-simpleLB), "extra-objects-guaranteed")
}

// BenchmarkAblationAdversary compares the three attack engines on the
// same instance (accuracy is asserted, speed is the measurement).
func BenchmarkAblationAdversary(b *testing.B) {
	pl, err := placement.BuildSimple(31, 3, 1, 2, 200, placement.SimpleOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const s, k = 2, 3
	exact, err := adversary.ExhaustiveWith(pl, s, k, adversary.SearchOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := adversary.ExhaustiveWith(pl, s, k, adversary.SearchOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("branch-and-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := adversary.WorstCaseWith(pl, s, k, adversary.SearchOpts{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed != exact.Failed {
				b.Fatalf("B&B %d != exact %d", res.Failed, exact.Failed)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := adversary.GreedyWith(pl, s, k, adversary.SearchOpts{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed > exact.Failed {
				b.Fatalf("greedy %d exceeds exact %d", res.Failed, exact.Failed)
			}
		}
	})
}

// BenchmarkAblationDomainAdversary compares the three domain-correlated
// attack engines on the same instance (accuracy asserted, speed
// measured), mirroring BenchmarkAblationAdversary at the rack level.
func BenchmarkAblationDomainAdversary(b *testing.B) {
	pl, err := placement.BuildSimple(31, 3, 1, 2, 200, placement.SimpleOptions{})
	if err != nil {
		b.Fatal(err)
	}
	topo, err := topology.Uniform(31, 10)
	if err != nil {
		b.Fatal(err)
	}
	const s, d = 2, 3
	exact, err := adversary.DomainExhaustiveAtWith(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := adversary.DomainExhaustiveAtWith(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("branch-and-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := adversary.DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed != exact.Failed {
				b.Fatalf("B&B %d != exact %d", res.Failed, exact.Failed)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := adversary.DomainGreedyAtWith(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed > exact.Failed {
				b.Fatalf("greedy %d exceeds exact %d", res.Failed, exact.Failed)
			}
		}
	})
}

// BenchmarkDomainWorstCasePar contrasts the serial and parallel
// whole-domain adversaries on a zones×racks hierarchy with 120 failure
// domains — the scale the parallel fan-out exists for. Damage equality
// with the serial engine is asserted at every worker count (the searches
// are exact, so only wall-clock may differ).
func BenchmarkDomainWorstCasePar(b *testing.B) {
	topo, err := topology.UniformHierarchy(240, 10, 12) // 120 racks in 10 zones
	if err != nil {
		b.Fatal(err)
	}
	pl, err := randplace.Generate(placement.Params{N: 240, B: 600, R: 3, S: 2, K: 4}, 7)
	if err != nil {
		b.Fatal(err)
	}
	const s, d = 2, 4
	serial, err := adversary.DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		var visited int64
		for i := 0; i < b.N; i++ {
			res, err := adversary.DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed != serial.Failed {
				b.Fatalf("serial rerun %d != %d", res.Failed, serial.Failed)
			}
			visited = res.Visited
		}
		b.ReportMetric(float64(visited), "visited-states")
	})
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var visited int64
			for i := 0; i < b.N; i++ {
				res, err := adversary.DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed != serial.Failed {
					b.Fatalf("parallel (%d workers) %d != serial %d", workers, res.Failed, serial.Failed)
				}
				visited = res.Visited
			}
			b.ReportMetric(float64(visited), "visited-states")
		})
	}
}

// BenchmarkWeightedWorstCase tracks the weighted adversary on the
// 120-rack instance of BenchmarkDomainWorstCasePar: "unit" runs with an
// explicit all-ones weight vector and must reproduce the unweighted
// engine byte for byte (damage AND visited states — the weights≡1
// acceptance pin, asserted every run), "hot" gives every 16th node
// weight 8 and maximizes lost weight. The visited-states metrics are
// deterministic and guarded by make bench-check.
func BenchmarkWeightedWorstCase(b *testing.B) {
	topo, err := topology.UniformHierarchy(240, 10, 12) // 120 racks in 10 zones
	if err != nil {
		b.Fatal(err)
	}
	pl, err := randplace.Generate(placement.Params{N: 240, B: 600, R: 3, S: 2, K: 4}, 7)
	if err != nil {
		b.Fatal(err)
	}
	const s, d = 2, 4
	plain, err := adversary.DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{})
	if err != nil {
		b.Fatal(err)
	}
	ones := make([]int64, pl.B())
	for i := range ones {
		ones[i] = 1
	}
	weights := make([]int, topo.N)
	for i := range weights {
		weights[i] = 1
		if i%16 == 0 {
			weights[i] = 8
		}
	}
	topo.Weights = weights
	hotW, err := placement.ObjectWeights(pl, topo)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unit", func(b *testing.B) {
		var visited int64
		for i := 0; i < b.N; i++ {
			res, err := adversary.DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{ObjWeights: ones})
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed != plain.Failed || res.Visited != plain.Visited {
				b.Fatalf("unit weights diverge: %+v vs unweighted %+v", res, plain)
			}
			visited = res.Visited
		}
		b.ReportMetric(float64(visited), "visited-states")
	})
	b.Run("hot", func(b *testing.B) {
		var visited int64
		for i := 0; i < b.N; i++ {
			res, err := adversary.DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{ObjWeights: hotW})
			if err != nil {
				b.Fatal(err)
			}
			// Weights >= 1, so the weighted optimum dominates the count
			// optimum (the count-optimal attack already weighs that much).
			if res.Failed < plain.Failed {
				b.Fatalf("weighted damage %d below unweighted %d", res.Failed, plain.Failed)
			}
			visited = res.Visited
		}
		b.ReportMetric(float64(visited), "visited-states")
	})
}

// zoneConfinedPlacement places each object's r replicas inside one
// random zone — the partition-heavy layout (objects live and die with
// their zone) where the residual-load bound prunes deepest. Real
// clusters produce this shape whenever placement is zone-local.
func zoneConfinedPlacement(b *testing.B, n, objects, r, zones int, seed int64) *placement.Placement {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	pl := placement.NewPlacement(n, r)
	perZone := n / zones
	nodes := make([]int, r)
	for i := 0; i < objects; i++ {
		z := rng.Intn(zones)
		perm := rng.Perm(perZone)
		for j := 0; j < r; j++ {
			nodes[j] = z*perZone + perm[j]
		}
		if err := pl.Add(nodes); err != nil {
			b.Fatal(err)
		}
	}
	return pl
}

// BenchmarkDomainWorstCaseLarge is the ≥500-domain scenario: 1000 nodes
// in 25 zones × 20 racks, a zone-confined placement of 2000 objects,
// exact whole-domain search. Serial and parallel worker counts are
// contrasted (damage equality asserted); visited states are reported so
// BENCH.json tracks the search effort across PRs, independent of the
// host's core count.
func BenchmarkDomainWorstCaseLarge(b *testing.B) {
	topo, err := topology.UniformHierarchy(1000, 25, 20) // 500 racks in 25 zones
	if err != nil {
		b.Fatal(err)
	}
	pl := zoneConfinedPlacement(b, 1000, 2000, 3, 25, 7)
	const s, d = 2, 3
	serial, err := adversary.DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		var visited int64
		for i := 0; i < b.N; i++ {
			res, err := adversary.DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed != serial.Failed {
				b.Fatalf("serial rerun %d != %d", res.Failed, serial.Failed)
			}
			visited = res.Visited
		}
		b.ReportMetric(float64(visited), "visited-states")
	})
	for _, workers := range []int{4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var visited int64
			for i := 0; i < b.N; i++ {
				res, err := adversary.DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed != serial.Failed {
					b.Fatalf("parallel (%d workers) %d != serial %d", workers, res.Failed, serial.Failed)
				}
				visited = res.Visited
			}
			b.ReportMetric(float64(visited), "visited-states")
		})
	}
}

// stealSkewInstance builds the starvation scenario for the parallel
// drivers: a hub node hosts a replica of every hot object, so every
// worthwhile attack includes candidate 0 and the whole search lives
// inside the single first=0 top-level branch — the remaining branches
// prune on sight. Top-level sharding hands that one branch to one
// worker and starves the rest; work stealing splits its interior. Hot
// objects pair the hub with a 30-node pool (the real combinatorial
// search), cold objects pad the candidate list with instantly-pruned
// branches. Built directly as a search.HitInstance (the node-level
// adapter's layout: unit hits, candidates by descending load) so the
// benchmark can drive both parallel drivers on identical instances.
func stealSkewInstance(b *testing.B) *search.HitInstance {
	b.Helper()
	const n, hot, cold, poolLo, poolHi, s, k = 240, 400, 200, 1, 20, 2, 5
	rng := rand.New(rand.NewSource(11))
	pl := placement.NewPlacement(n, 3)
	for i := 0; i < hot; i++ {
		a := poolLo + rng.Intn(poolHi-poolLo+1)
		c := poolLo + rng.Intn(poolHi-poolLo+1)
		for c == a {
			c = poolLo + rng.Intn(poolHi-poolLo+1)
		}
		if err := pl.Add([]int{0, a, c}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < cold; i++ {
		perm := rng.Perm(n - poolHi - 1)
		if err := pl.Add([]int{poolHi + 1 + perm[0], poolHi + 1 + perm[1], poolHi + 1 + perm[2]}); err != nil {
			b.Fatal(err)
		}
	}
	perNode := make([][]search.Hit, n)
	for obj := 0; obj < pl.B(); obj++ {
		for _, nd := range pl.ReplicaNodes(obj) {
			perNode[nd] = append(perNode[nd], search.Hit{Obj: int32(obj), C: 1})
		}
	}
	loadsByNode := pl.NodeLoads()
	var candidates []int
	for nd, l := range loadsByNode {
		if l > 0 {
			candidates = append(candidates, nd)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if loadsByNode[candidates[i]] != loadsByNode[candidates[j]] {
			return loadsByNode[candidates[i]] > loadsByNode[candidates[j]]
		}
		return candidates[i] < candidates[j]
	})
	hitLists := make([][]search.Hit, len(candidates))
	loads := make([]int64, len(candidates))
	for i, nd := range candidates {
		hitLists[i] = perNode[nd]
		loads[i] = int64(loadsByNode[nd])
	}
	in := search.NewHitInstance(s, pl.B())
	in.Reinit(k, hitLists, loads)
	return in
}

// BenchmarkStealSkew runs the work-stealing driver on the
// skewed-survivor instance at 8 workers, with serial as the scale
// reference. A driver that only shards top-level branches degenerates
// to one busy worker here, since one branch dominates; stealing splits
// that branch's interior across all 8, so on a multi-core host an
// expected ≥2x and up to ~8x. On a single-core runner the two times
// coincide and the benchmark instead pins the scheduler's overhead
// (steal ns/op must stay at serial's) and its exactness: damage
// equality is asserted every run, and the visited-states metrics are
// deterministic (the greedy seed is optimal, so the incumbent never
// moves and pruning is schedule-independent — steal matches serial
// exactly) and tracked by make bench-check.
func BenchmarkStealSkew(b *testing.B) {
	probe := stealSkewInstance(b)
	seed := search.Greedy(probe)
	probe.Reset()
	serial := search.BranchAndBoundWith(probe, seed, search.NewBudget(0), search.BoundResidual)
	newInst := func() (search.Instance, error) { return probe.Clone(), nil }
	b.Run("serial", func(b *testing.B) {
		var visited int64
		for i := 0; i < b.N; i++ {
			res := search.BranchAndBoundWith(probe, seed, search.NewBudget(0), search.BoundResidual)
			if res.Failed != serial.Failed {
				b.Fatalf("serial rerun %d != %d", res.Failed, serial.Failed)
			}
			visited = res.Visited
		}
		b.ReportMetric(float64(visited), "visited-states")
	})
	b.Run("steal/workers=8", func(b *testing.B) {
		var visited int64
		for i := 0; i < b.N; i++ {
			res, err := search.BranchAndBoundParallelWith(probe, newInst, seed, search.NewBudget(0), 8, search.BoundResidual)
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed != serial.Failed {
				b.Fatalf("steal %d != serial %d", res.Failed, serial.Failed)
			}
			visited = res.Visited
		}
		b.ReportMetric(float64(visited), "visited-states")
	})
}

// BenchmarkDomainWorstCaseDeep attacks every level of a depth-3
// region→zone→rack tree (5 × 5 × 20 = 500 racks over 1000 nodes, the
// zone-confined placement of the Large benchmark): the level-taking
// engines build their instance from Collapse(level) and run the very
// same search core, so this tracks what each tier of the hierarchy
// costs — the region search is tiny, the rack search is the 500-domain
// case. Damage equality with a direct search on the collapsed topology
// is asserted per level; visited-states is the hardware-independent
// metric BENCH.json tracks.
func BenchmarkDomainWorstCaseDeep(b *testing.B) {
	topo, err := topology.UniformTree(1000, 5, 5, 20) // 5 regions x 25 zones x 500 racks
	if err != nil {
		b.Fatal(err)
	}
	if topo.Levels() != 3 {
		b.Fatalf("Levels = %d, want 3", topo.Levels())
	}
	pl := zoneConfinedPlacement(b, 1000, 2000, 3, 25, 7)
	const s = 2
	cases := []struct {
		name  string
		level int
		d     int
	}{
		{"level=region", 0, 2},
		{"level=zone", 1, 3},
		{"level=rack", 2, 3},
	}
	for _, tc := range cases {
		flat, err := topo.Collapse(tc.level)
		if err != nil {
			b.Fatal(err)
		}
		want, err := adversary.DomainWorstCaseAtWith(pl, flat, topology.Leaf, s, tc.d, adversary.SearchOpts{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			var visited int64
			for i := 0; i < b.N; i++ {
				res, err := adversary.DomainWorstCaseAtWith(pl, topo, tc.level, s, tc.d, adversary.SearchOpts{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed != want.Failed {
					b.Fatalf("level %d damage %d != collapsed search %d", tc.level, res.Failed, want.Failed)
				}
				visited = res.Visited
			}
			b.ReportMetric(float64(visited), "visited-states")
		})
	}
	// The parallel engine at the expensive (rack) level.
	rackSerial, err := adversary.DomainWorstCaseAtWith(pl, topo, 2, s, 3, adversary.SearchOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("level=rack/workers=8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := adversary.DomainWorstCaseAtWith(pl, topo, 2, s, 3, adversary.SearchOpts{Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed != rackSerial.Failed {
				b.Fatalf("parallel %d != serial %d", res.Failed, rackSerial.Failed)
			}
		}
	})
}

// BenchmarkBoundAblation measures the residual-load pruning bound
// against the static replica-counting baseline (the -bound switch) on
// two instance families over the 500-rack topology:
//
//   - partition: zone-confined objects with s = 1, where failed racks
//     kill whole object groups and the residual discount collapses the
//     search — the case the bound exists for;
//   - uniform: a flat random placement, where deaths are rare along
//     search paths and the two bounds must coincide (the regression
//     guard: residual may cost nothing here).
//
// Damage equality between the bounds is asserted; visited-states is the
// hardware-independent metric BENCH.json tracks.
func BenchmarkBoundAblation(b *testing.B) {
	topo, err := topology.UniformHierarchy(1000, 25, 20) // 500 racks
	if err != nil {
		b.Fatal(err)
	}
	partition := zoneConfinedPlacement(b, 1000, 2000, 3, 25, 7)
	uniform, err := randplace.Generate(placement.Params{N: 1000, B: 2000, R: 3, S: 2, K: 4}, 7)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		pl   *placement.Placement
		s, d int
	}{
		{"partition-s1-d10", partition, 1, 10},
		{"uniform-s2-d3", uniform, 2, 3},
	}
	for _, tc := range cases {
		exact, err := adversary.DomainWorstCaseAtWith(tc.pl, topo, topology.Leaf, tc.s, tc.d, adversary.SearchOpts{})
		if err != nil {
			b.Fatal(err)
		}
		for _, bound := range []search.Bound{search.BoundStatic, search.BoundResidual} {
			b.Run(fmt.Sprintf("%s/bound=%s", tc.name, bound), func(b *testing.B) {
				var visited int64
				for i := 0; i < b.N; i++ {
					res, err := adversary.DomainWorstCaseAtWith(tc.pl, topo, topology.Leaf, tc.s, tc.d, adversary.SearchOpts{Bound: bound})
					if err != nil {
						b.Fatal(err)
					}
					if res.Failed != exact.Failed {
						b.Fatalf("bound=%s damage %d != %d", bound, res.Failed, exact.Failed)
					}
					visited = res.Visited
				}
				b.ReportMetric(float64(visited), "visited-states")
			})
		}
	}
}

// BenchmarkConstrainedWorstCasePar measures the subset-sharded parallel
// constrained adversary against its serial twin.
func BenchmarkConstrainedWorstCasePar(b *testing.B) {
	topo, err := topology.Uniform(60, 12)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := randplace.Generate(placement.Params{N: 60, B: 400, R: 3, S: 2, K: 4}, 7)
	if err != nil {
		b.Fatal(err)
	}
	const s, k, d = 2, 4, 2
	serial, err := adversary.ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, s, k, d, adversary.SearchOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := adversary.ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, s, k, d, adversary.SearchOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := adversary.ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, s, k, d, adversary.SearchOpts{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed != serial.Failed {
					b.Fatalf("parallel %d != serial %d", res.Failed, serial.Failed)
				}
			}
		})
	}
}

// BenchmarkSpreadAcrossDomains measures the domain-aware relabeling
// post-pass (candidate generation plus exact evaluation).
func BenchmarkSpreadAcrossDomains(b *testing.B) {
	pl, err := placement.BuildSimple(31, 3, 1, 2, 200, placement.SimpleOptions{})
	if err != nil {
		b.Fatal(err)
	}
	topo, err := topology.Uniform(31, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := placement.SpreadAcrossDomains(pl, topo, 2, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOverlap contrasts the inter-object correlation of the
// combinatorial placement against Random: Simple(x, λ) caps pair
// overlaps at x by construction (the mechanism behind the paper's
// worst-case wins), while Random merely makes big overlaps unlikely.
func BenchmarkAblationOverlap(b *testing.B) {
	const (
		n, r, s, k = 31, 3, 2, 3
		objects    = 150
	)
	units, err := placement.DefaultUnits(n, r, s, true)
	if err != nil {
		b.Fatal(err)
	}
	spec, _, err := placement.OptimizeCombo(objects, k, s, units)
	if err != nil {
		b.Fatal(err)
	}
	combo, err := placement.BuildCombo(n, r, spec, objects, placement.SimpleOptions{})
	if err != nil {
		b.Fatal(err)
	}
	random, err := randplace.Generate(placement.Params{N: n, B: objects, R: r, S: s, K: k}, 5)
	if err != nil {
		b.Fatal(err)
	}
	var comboPairs, randomPairs int64
	b.Run("combo-histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist, err := combo.OverlapHistogram(0, 1)
			if err != nil {
				b.Fatal(err)
			}
			comboPairs = hist[2] + hist[3] // pairs overlapping beyond x = 1
		}
	})
	b.Run("random-histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist, err := random.OverlapHistogram(0, 1)
			if err != nil {
				b.Fatal(err)
			}
			randomPairs = hist[2] + hist[3]
		}
	})
	b.ReportMetric(float64(randomPairs-comboPairs), "extra-high-overlap-pairs-in-random")
}

// BenchmarkAblationVulnEval compares the early-terminating log-space
// binomial tail against full summation.
func BenchmarkAblationVulnEval(b *testing.B) {
	const (
		n = 38400
		f = 600
	)
	logP := math.Log(0.01)
	log1mP := math.Log1p(-0.01)
	b.Run("early-termination", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			combin.LogBinomTailGE(n, f, logP, log1mP)
		}
	})
	b.Run("full-summation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			logSum := math.Inf(-1)
			for x := f; x <= n; x++ {
				logSum = combin.LogSumExp(logSum, combin.LogBinomPMF(n, x, logP, log1mP))
			}
			_ = logSum
		}
	})
}

// BenchmarkAblationChunking measures the capacity benefit of multi-chunk
// decompositions (Observation 2) over the single best order.
func BenchmarkAblationChunking(b *testing.B) {
	orders, err := capacity.AvailableOrders(2, 5, 700, 1)
	if err != nil {
		b.Fatal(err)
	}
	var single, chunked int64
	b.Run("single-chunk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := capacity.BestGap(2, 5, 700, 1, orders)
			if err != nil {
				b.Fatal(err)
			}
			single = g.Achieved
		}
	})
	b.Run("three-chunks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := capacity.BestGap(2, 5, 700, 3, orders)
			if err != nil {
				b.Fatal(err)
			}
			chunked = g.Achieved
		}
	})
	if chunked < single {
		b.Fatalf("chunked capacity %d below single %d", chunked, single)
	}
	b.ReportMetric(float64(chunked-single), "extra-capacity-numerator")
}

// BenchmarkAblationIncremental compares the adversary's incremental
// failure counting against recounting every subset from scratch.
func BenchmarkAblationIncremental(b *testing.B) {
	pl, err := placement.BuildSimple(19, 3, 1, 1, 57, placement.SimpleOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const s, k = 2, 3
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := adversary.ExhaustiveWith(pl, s, k, adversary.SearchOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recount-from-scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			worst := 0
			combin.ForEachSubset(pl.N, k, func(nodes []int) bool {
				failed := combin.NewBitsetFrom(pl.N, nodes)
				if f := pl.FailedObjects(failed, s); f > worst {
					worst = f
				}
				return true
			})
			if worst == 0 {
				b.Fatal("no damage found")
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot primitives.
// ---------------------------------------------------------------------------

func BenchmarkOptimizeComboLargeB(b *testing.B) {
	units, err := placement.DefaultUnits(71, 5, 3, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := placement.OptimizeCombo(38400, 6, 3, units); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrAvailLargeB(b *testing.B) {
	p := placement.Params{N: 257, B: 38400, R: 5, S: 3, K: 6}
	for i := 0; i < b.N; i++ {
		if _, err := randplace.PrAvail(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildSimpleSTS69(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := placement.BuildSimple(71, 3, 1, 13, 9600, placement.SimpleOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteinerTriple255(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := design.SteinerTriple(255); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpherical65(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := design.Spherical(4, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomPlacement(b *testing.B) {
	p := placement.Params{N: 71, B: 2400, R: 5, S: 3, K: 5}
	for i := 0; i < b.N; i++ {
		if _, err := randplace.Generate(p, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorstCaseBnB(b *testing.B) {
	pl, err := randplace.Generate(placement.Params{N: 31, B: 600, R: 5, S: 3, K: 4}, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adversary.WorstCaseWith(pl, 3, 4, adversary.SearchOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// incrementalProbe is one step of the re-plan chain BenchmarkIncrementalMove
// replays: a single-replica move, probed and then reverted.
type incrementalProbe struct {
	obj, from, to int
}

// buildIncrementalProbes derives a deterministic probe chain from the
// partition placement: count moves, every fifth crossing racks, the
// rest intra-rack rebalancing (the common reconciler case — the move
// changes node loads but no failure domain). All moves stay inside the
// object's zone, preserving the zone-confined shape.
func buildIncrementalProbes(b *testing.B, pl *placement.Placement, topo *topology.Topology, zones, count int) []incrementalProbe {
	b.Helper()
	rng := rand.New(rand.NewSource(13))
	perZone := pl.N / zones
	probes := make([]incrementalProbe, 0, count)
	for len(probes) < count {
		cross := len(probes)%5 == 4
		obj := rng.Intn(pl.B())
		members := pl.ReplicaNodes(obj)
		from := members[rng.Intn(len(members))]
		zone := from / perZone
		to := zone*perZone + rng.Intn(perZone)
		if to == from || pl.Objects[obj].Get(to) {
			continue
		}
		if cross == (topo.DomainOf(to) == topo.DomainOf(from)) {
			continue
		}
		probes = append(probes, incrementalProbe{obj: obj, from: from, to: to})
	}
	return probes
}

// BenchmarkIncrementalMove contrasts cold and warm evaluation of a
// chain of one-replica re-plans on the partition scenario (the
// zone-confined placement of the Large benchmark): each probe applies
// one move, evaluates the rack-level worst case, then reverts and
// evaluates again — the probe-and-revert loop a placement reconciler
// runs. Cold rebuilds the instance and searches from scratch for every
// evaluation; warm drives one adversary.Session whose CSR move deltas,
// damage memo, and same-domain fast path answer reverts and intra-rack
// probes without searching. The tracked visited-states metric is the
// average per evaluation over the whole chain; the warm chain must
// come in at least 5x under the cold one (asserted when both
// sub-benchmarks run).
func BenchmarkIncrementalMove(b *testing.B) {
	const zones, s, d = 25, 2, 3
	topo, err := topology.UniformHierarchy(1000, zones, 20)
	if err != nil {
		b.Fatal(err)
	}
	pl := zoneConfinedPlacement(b, 1000, 2000, 3, zones, 11)
	probes := buildIncrementalProbes(b, pl, topo, zones, 20)
	// want[i] is the exact damage after probe i's move, recorded by the
	// cold run and pinned against the warm one.
	var want []int
	var coldAvg float64
	b.Run("cold", func(b *testing.B) {
		var total int64
		evals := 0
		for i := 0; i < b.N; i++ {
			total, evals = 0, 0
			want = want[:0]
			cur := pl.Clone()
			base, err := adversary.DomainWorstCaseAtWith(cur, topo, topology.Leaf, s, d, adversary.SearchOpts{})
			if err != nil {
				b.Fatal(err)
			}
			total += base.Visited
			evals++
			for _, pr := range probes {
				if err := cur.MoveReplica(pr.obj, pr.from, pr.to); err != nil {
					b.Fatal(err)
				}
				res, err := adversary.DomainWorstCaseAtWith(cur, topo, topology.Leaf, s, d, adversary.SearchOpts{})
				if err != nil {
					b.Fatal(err)
				}
				total += res.Visited
				evals++
				want = append(want, res.Failed)
				if err := cur.MoveReplica(pr.obj, pr.to, pr.from); err != nil {
					b.Fatal(err)
				}
				back, err := adversary.DomainWorstCaseAtWith(cur, topo, topology.Leaf, s, d, adversary.SearchOpts{})
				if err != nil {
					b.Fatal(err)
				}
				total += back.Visited
				evals++
				if back.Failed != base.Failed {
					b.Fatalf("revert damage %d != base %d", back.Failed, base.Failed)
				}
			}
		}
		coldAvg = float64(total) / float64(evals)
		b.ReportMetric(coldAvg, "visited-states")
	})
	b.Run("warm", func(b *testing.B) {
		var total int64
		evals := 0
		for i := 0; i < b.N; i++ {
			total, evals = 0, 0
			se, err := adversary.NewDomainSession(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{})
			if err != nil {
				b.Fatal(err)
			}
			base, err := se.Evaluate(nil)
			if err != nil {
				b.Fatal(err)
			}
			total += base.Visited
			evals++
			for pi, pr := range probes {
				res, err := se.Move(pr.obj, pr.from, pr.to)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Visited
				evals++
				if len(want) > pi && res.Failed != want[pi] {
					b.Fatalf("probe %d: warm damage %d != cold %d", pi, res.Failed, want[pi])
				}
				back, err := se.Move(pr.obj, pr.to, pr.from)
				if err != nil {
					b.Fatal(err)
				}
				total += back.Visited
				evals++
				if back.Failed != base.Failed {
					b.Fatalf("revert damage %d != base %d", back.Failed, base.Failed)
				}
			}
		}
		warmAvg := float64(total) / float64(evals)
		b.ReportMetric(warmAvg, "visited-states")
		if coldAvg > 0 && warmAvg*5 > coldAvg {
			b.Fatalf("warm chain averaged %.0f visited states per evaluation, cold %.0f — less than the required 5x drop",
				warmAvg, coldAvg)
		}
	})
}

// buildFanoutMoves derives a deterministic batch of distinct cross-rack
// probe candidates from the partition placement — every move changes a
// failure domain, so each probe costs a real warm search rather than
// the same-domain fast path. All moves stay inside the object's zone.
func buildFanoutMoves(b *testing.B, pl *placement.Placement, topo *topology.Topology, zones, count int) []adversary.Move {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	perZone := pl.N / zones
	seen := map[adversary.Move]bool{}
	moves := make([]adversary.Move, 0, count)
	for len(moves) < count {
		obj := rng.Intn(pl.B())
		members := pl.ReplicaNodes(obj)
		from := members[rng.Intn(len(members))]
		zone := from / perZone
		to := zone*perZone + rng.Intn(perZone)
		if to == from || pl.Objects[obj].Get(to) || topo.DomainOf(to) == topo.DomainOf(from) {
			continue
		}
		m := adversary.Move{Obj: obj, From: from, To: to}
		if seen[m] {
			continue
		}
		seen[m] = true
		moves = append(moves, m)
	}
	return moves
}

// BenchmarkProbeFanout measures the parallel probe layer on the
// partition scenario: one warm session evaluates its base placement,
// then a batch of 32 cross-rack candidate moves is probed — serially,
// and fanned out over 8 forked workers sharing the sharded memo. The
// workers=8 sub-benchmark asserts the results are byte-identical to
// the serial scan (per-slot damage and the tracked total visited
// states), and — when the host has more than 2 cores — that the
// fan-out is at least 2x faster per batch.
func BenchmarkProbeFanout(b *testing.B) {
	const zones, s, d, batch = 25, 2, 3, 32
	topo, err := topology.UniformHierarchy(1000, zones, 20)
	if err != nil {
		b.Fatal(err)
	}
	pl := zoneConfinedPlacement(b, 1000, 2000, 3, zones, 11)
	moves := buildFanoutMoves(b, pl, topo, zones, batch)

	// Each iteration probes the batch on a fresh session (the shared
	// memo would otherwise answer everything after the first pass);
	// session setup and the base evaluation run off the timer.
	run := func(b *testing.B, workers int) (damages []int, visited int64, perBatch float64) {
		var elapsed time.Duration
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			se, err := adversary.NewDomainSession(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := se.Evaluate(nil); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			start := time.Now()
			results := se.ProbeMoves(moves, workers)
			elapsed += time.Since(start)
			damages = damages[:0]
			visited = 0
			for mi, res := range results {
				if res.Failed < 0 {
					b.Fatalf("probe %d failed to apply", mi)
				}
				damages = append(damages, res.Failed)
				visited += res.Visited
			}
		}
		return damages, visited, float64(elapsed.Nanoseconds()) / float64(b.N)
	}

	var serialDamages []int
	var serialVisited int64
	var serialNs float64
	b.Run("serial", func(b *testing.B) {
		serialDamages, serialVisited, serialNs = run(b, 1)
		b.ReportMetric(float64(serialVisited), "visited-states")
	})
	b.Run("workers=8", func(b *testing.B) {
		damages, visited, parNs := run(b, 8)
		b.ReportMetric(float64(visited), "visited-states")
		if serialDamages != nil {
			if !reflect.DeepEqual(damages, serialDamages) {
				b.Fatalf("workers=8 damages diverge from serial:\n got %v\nwant %v", damages, serialDamages)
			}
			if visited != serialVisited {
				b.Fatalf("workers=8 visited %d states, serial %d — probes are not deterministic", visited, serialVisited)
			}
			if runtime.GOMAXPROCS(0) > 2 {
				if speedup := serialNs / parNs; speedup < 2 {
					b.Fatalf("workers=8 speedup %.2fx over serial, want >= 2x (GOMAXPROCS=%d)",
						speedup, runtime.GOMAXPROCS(0))
				}
			}
		}
	})
}

// BenchmarkProbeMemoHit pins the zero-allocation probe hot path: once
// a probe pair (apply + revert) is memoized, driving it through
// MoveInto with caller-provided result scratch must not allocate — the
// assertion that keeps copyInto/scratch-signature reuse honest.
func BenchmarkProbeMemoHit(b *testing.B) {
	const zones, s, d = 5, 2, 2
	topo, err := topology.UniformHierarchy(100, zones, 4)
	if err != nil {
		b.Fatal(err)
	}
	pl := zoneConfinedPlacement(b, 100, 200, 3, zones, 7)
	se, err := adversary.NewDomainSession(pl, topo, topology.Leaf, s, d, adversary.SearchOpts{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := se.Evaluate(nil); err != nil {
		b.Fatal(err)
	}
	m := buildFanoutMoves(b, pl, topo, zones, 1)[0]
	var dst adversary.SessionResult
	pair := func() {
		if err := se.MoveInto(&dst, m.Obj, m.From, m.To); err != nil {
			b.Fatal(err)
		}
		if err := se.MoveInto(&dst, m.Obj, m.To, m.From); err != nil {
			b.Fatal(err)
		}
	}
	pair() // warm: both placements land in the memo, scratch grows to size
	if allocs := testing.AllocsPerRun(100, pair); allocs > 0 {
		b.Fatalf("memo-hit probe pair allocated %.1f times, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair()
	}
}
