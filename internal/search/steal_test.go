package search

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestStealMatchesSerial is the driver's exactness spec against an
// independent oracle: on randomized instances — cover, hit-count, and
// weighted — and at every worker count, the one-worker (serial) run
// included, exact runs return the seed when it ties the optimum and
// otherwise brute force's lex-first optimal selection (Exhaustive
// enumerates in lex order and keeps the first optimum), whatever order
// the workers raced through the tree in. k is drawn from 1, so the
// K == 1 root scan is covered too. The skewed instances aim at the
// final-level scan cut: heavy candidates ahead of a long load-1 and
// zero-load tail, so scans break at their first candidate, greedy seeds
// tie the snapshot exactly, and hot weighted objects test the cut's
// Marginal <= Load premise in weight units. The flat instances aim at
// the gain-vector search: node-like r = 3 placements whose loads are
// nearly equal, so the load cut rarely fires and the parent's gains
// decide which two-picks-left children are applied and which
// final-level candidates are scanned; the deeper ones give thieves
// tasks below the root, each entered with a Gains refill.
func TestStealMatchesSerial(t *testing.T) {
	check := func(t *testing.T, trial int, probe *HitInstance, seed Result, bound Bound) {
		t.Helper()
		want := Exhaustive(probe)
		if seed.Failed == want.Failed {
			want.Sel = seed.Sel
		}
		for _, workers := range []int{1, 2, 3, 8} {
			got := BranchAndBound(probe, seed, NewBudget(0), workers, bound)
			if got.Failed != want.Failed || !got.Exact || !reflect.DeepEqual(got.Sel, want.Sel) {
				t.Errorf("trial %d workers=%d: got (%d, %v, exact=%v), want (%d, %v)",
					trial, workers, got.Failed, got.Sel, got.Exact, want.Failed, want.Sel)
			}
		}
	}

	t.Run("cover", func(t *testing.T) {
		rng := rand.New(rand.NewSource(131))
		for trial := 0; trial < 30; trial++ {
			m := 6 + rng.Intn(6)
			r := 2 + rng.Intn(2)
			b := 5 + rng.Intn(25)
			s := 1 + rng.Intn(r)
			k := 1 + rng.Intn(m-1)
			in := newCoverInstance(m, k, s, randomMembers(rng, m, r, b))
			seed := Greedy(in)
			check(t, trial, in, seed, BoundStatic)
		}
	})

	t.Run("hit", func(t *testing.T) {
		rng := rand.New(rand.NewSource(137))
		for trial := 0; trial < 30; trial++ {
			m := 6 + rng.Intn(6)
			r := 2 + rng.Intn(2)
			b := 5 + rng.Intn(25)
			maxC := 1 + rng.Intn(3)
			s := 1 + rng.Intn(r*maxC)
			k := 1 + rng.Intn(m-1)
			in, _ := randomHitInstance(rng, m, r, b, s, k, maxC)
			seed := Greedy(in)
			check(t, trial, in, seed, BoundResidual)
		}
	})

	t.Run("weighted", func(t *testing.T) {
		rng := rand.New(rand.NewSource(139))
		for trial := 0; trial < 20; trial++ {
			m := 6 + rng.Intn(5)
			b := 5 + rng.Intn(20)
			s := 1 + rng.Intn(3)
			k := 1 + rng.Intn(m-1)
			w := make([]int64, b)
			for i := range w {
				w[i] = int64(1 + rng.Intn(9))
			}
			in, _ := randWeightedInstance(rng, m, b, k, s, w)
			seed := Greedy(in)
			check(t, trial, in, seed, BoundResidual)
		}
	})

	t.Run("skewed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(163))
		for trial := 0; trial < 40; trial++ {
			in := skewedInstance(rng)
			bound := []Bound{BoundResidual, BoundStatic}[trial%2]
			// A greedy seed is often optimal, so scans tie the snapshot;
			// the lex-first selection is a weak seed the search must
			// overtake, moving the incumbent mid-run.
			seed := Greedy(in)
			check(t, trial, in, seed, bound)
			weak := make([]int, in.K())
			for i := range weak {
				weak[i] = i
			}
			check(t, trial, in, Result{Failed: Revalidate(in, weak), Sel: weak}, bound)
		}
	})
	t.Run("flat", func(t *testing.T) {
		rng := rand.New(rand.NewSource(167))
		for trial := 0; trial < 120; trial++ {
			m := 8 + rng.Intn(5)
			b := 2*m + rng.Intn(3*m)
			k := 2 + rng.Intn(4)
			in := flatInstance(rng, m, b, 2, k, trial%2 == 1)
			bound := []Bound{BoundResidual, BoundStatic}[trial/2%2]
			seed := Greedy(in)
			check(t, trial, in, seed, bound)
			weak := make([]int, k)
			for i := range weak {
				weak[i] = i
			}
			check(t, trial, in, Result{Failed: Revalidate(in, weak), Sel: weak}, bound)
		}
		// Deeper trees, where thieves find tasks below the root and
		// enter them with a Gains refill; at one worker, stolenRun
		// enters every task that way.
		for trial := 0; trial < 16; trial++ {
			m := 14 + rng.Intn(5)
			b := 3*m + rng.Intn(2*m)
			k := 4 + rng.Intn(2)
			in := flatInstance(rng, m, b, 2, k, trial%2 == 1)
			seed := Greedy(in)
			check(t, 120+trial, in, seed, BoundResidual)
			ref := BranchAndBound(in, seed, NewBudget(0), 1, BoundResidual)
			if _, got := stolenRun(in, seed, BoundResidual); !reflect.DeepEqual(got, ref) {
				t.Errorf("trial %d: every task stolen %+v, serial %+v", 120+trial, got, ref)
			}
		}
	})
}

// skewedInstance builds a HitInstance in canonical order whose loads
// fall off a cliff: one to three heavy candidates over many objects, a
// long tail of single-hit (load-1) candidates and zero-load padding.
// Half the instances mark a few objects hot through Assign, so the tail
// candidates on them carry weighted loads above 1.
func skewedInstance(rng *rand.Rand) *HitInstance {
	b := 6 + rng.Intn(8)
	var lists [][]Hit
	for h := 1 + rng.Intn(3); h > 0; h-- {
		var hl []Hit
		for obj := 0; obj < b; obj++ {
			if rng.Intn(2) == 0 {
				hl = append(hl, Hit{Obj: int32(obj), C: int32(1 + rng.Intn(2))})
			}
		}
		lists = append(lists, hl)
	}
	for tail := 4 + rng.Intn(6); tail > 0; tail-- {
		lists = append(lists, []Hit{{Obj: int32(rng.Intn(b)), C: 1}})
	}
	for pad := rng.Intn(3); pad > 0; pad-- {
		lists = append(lists, nil)
	}
	var w []int64
	if rng.Intn(2) == 0 {
		w = make([]int64, b)
		for obj := range w {
			w[obj] = 1
			if rng.Intn(4) == 0 {
				w[obj] = int64(5 + rng.Intn(20))
			}
		}
	}
	in := NewHitInstance(1+rng.Intn(2), b)
	in.Assign(1+rng.Intn(len(lists)-1), lists, w, nil, true)
	return in
}

// TestStealLeaseAccounting pins the leased-budget contract: leases are
// settled at worker exit, so Used() is exactly the states entered, not
// the states claimed.
func TestStealLeaseAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	members := randomMembers(rng, 16, 3, 100)
	const m, k, s = 16, 5, 2

	// Seed with the exact optimum (from the one-worker run) so the
	// incumbent never moves: prune decisions match the one-worker run
	// state for state and the visited set — hence the count — is
	// identical at any worker count.
	in := newCoverInstance(m, k, s, members)
	seed := Greedy(in)
	exact := BranchAndBound(in, seed, NewBudget(0), 1, BoundStatic)

	// Every run leaves in clean, so each one searches it afresh.
	for _, workers := range []int{1, 2, 3, 8} {
		// Unlimited: every lease chunk's unused remainder comes back.
		bud := NewBudget(0)
		res := BranchAndBound(in, exact, bud, workers, BoundStatic)
		if bud.Used() != exact.Visited || res.Visited != exact.Visited {
			t.Errorf("workers=%d unlimited: used %d visited %d, one-worker visited %d — leases leaked",
				workers, bud.Used(), res.Visited, exact.Visited)
		}

		// Ample limit: the search finishes without exhausting, and the
		// limit's unclaimed tail must not be counted as used.
		bud = NewBudget(exact.Visited * 10)
		res = BranchAndBound(in, exact, bud, workers, BoundStatic)
		if !res.Exact {
			t.Errorf("workers=%d: ample budget run not exact", workers)
		}
		if bud.Used() != exact.Visited {
			t.Errorf("workers=%d ample: used %d, want %d", workers, bud.Used(), exact.Visited)
		}

		// Tiny limit: never overshoot, never report more visited than
		// allowed, remaining consistent.
		for _, limit := range []int64{1, 5, 37} {
			bud = NewBudget(limit)
			res = BranchAndBound(in, seed, bud, workers, BoundStatic)
			if bud.Used() > limit || res.Visited > limit {
				t.Errorf("workers=%d limit=%d: used %d visited %d — overshoot", workers, limit, bud.Used(), res.Visited)
			}
			if res.Exact {
				t.Errorf("workers=%d limit=%d: exhausted run claims exactness", workers, limit)
			}
			if got, want := bud.Remaining(), limit-bud.Used(); got != want {
				t.Errorf("workers=%d limit=%d: Remaining %d, want %d", workers, limit, got, want)
			}
			if res.Failed < seed.Failed || res.Failed > exact.Failed {
				t.Errorf("workers=%d limit=%d: result %d outside [seed %d, exact %d]",
					workers, limit, res.Failed, seed.Failed, exact.Failed)
			}
		}
	}
}

// TestStealStress hammers the scheduler with oversubscribed workers and
// a tiny shared budget — the -race configuration: many goroutines
// racing over few states, leases shrunk to per-worker shares, repeated
// across searches draining one budget.
func TestStealStress(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	members := randomMembers(rng, 14, 3, 80)
	const m, k, s = 14, 4, 2

	in := newCoverInstance(m, k, s, members)
	seed := Greedy(in)
	exact := BranchAndBound(in, seed, NewBudget(0), 1, BoundStatic)

	const workers = 32 // far more than cores: steal scans and idle spins collide constantly
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			bud := NewBudget(int64(3 + round*17))
			probe := newCoverInstance(m, k, s, members) // one per concurrent round
			for bud.Remaining() > 0 {
				res := BranchAndBound(probe, seed, bud, workers, BoundStatic)
				if res.Failed < seed.Failed || res.Failed > exact.Failed {
					t.Errorf("round %d: result %d outside [seed %d, exact %d]", round, res.Failed, seed.Failed, exact.Failed)
					return
				}
			}
			if bud.Used() > bud.Limit() {
				t.Errorf("round %d: used %d > limit %d", round, bud.Used(), bud.Limit())
			}
		}(round)
	}
	wg.Wait()
}

// TestStealRejectsUnresolvedWorkers pins the worker-count contract: the
// driver takes a resolved count of at least one and panics below it
// rather than guessing a default.
func TestStealRejectsUnresolvedWorkers(t *testing.T) {
	members := randomMembers(rand.New(rand.NewSource(157)), 8, 3, 20)
	for _, workers := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: BranchAndBound did not panic", workers)
				}
			}()
			BranchAndBound(newCoverInstance(8, 3, 2, members), Result{}, NewBudget(0), workers, BoundStatic)
		}()
	}
}
