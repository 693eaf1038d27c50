package search

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestStealMatchesSerial is the work-stealing parity property: on
// randomized instances — cover, hit-count, and weighted — and across
// worker counts, exact runs return byte-identical (Failed, Sel, Exact)
// to the serial driver, whatever order the workers raced through the
// tree in.
func TestStealMatchesSerial(t *testing.T) {
	workerCounts := []int{2, 3, 8}

	t.Run("cover", func(t *testing.T) {
		rng := rand.New(rand.NewSource(131))
		for trial := 0; trial < 30; trial++ {
			m := 6 + rng.Intn(6)
			r := 2 + rng.Intn(2)
			b := 5 + rng.Intn(25)
			s := 1 + rng.Intn(r)
			k := 1 + rng.Intn(m-1)
			members := randomMembers(rng, m, r, b)
			mk := func() Instance { return newCoverInstance(m, k, s, members) }

			in := newCoverInstance(m, k, s, members)
			seed := Greedy(in)
			in.Reset()
			want := BranchAndBoundWith(in, seed, NewBudget(0), BoundStatic)

			for _, workers := range workerCounts {
				got := BranchAndBoundParallelWith(newCoverInstance(m, k, s, members), mk, seed, NewBudget(0), workers, BoundStatic)
				if got.Failed != want.Failed || got.Exact != want.Exact || !reflect.DeepEqual(got.Sel, want.Sel) {
					t.Errorf("trial %d workers=%d: got (%d, %v, %v), serial (%d, %v, %v)",
						trial, workers, got.Failed, got.Sel, got.Exact, want.Failed, want.Sel, want.Exact)
				}
			}
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
			in.Reset()
			want := BranchAndBoundWith(in, seed, NewBudget(0), BoundResidual)
			in.Reset()

			for _, workers := range workerCounts {
				got := BranchAndBoundParallelWith(in, func() Instance { return in.Clone() }, seed, NewBudget(0), workers, BoundResidual)
				if got.Failed != want.Failed || got.Exact != want.Exact || !reflect.DeepEqual(got.Sel, want.Sel) {
					t.Errorf("trial %d workers=%d: got (%d, %v, %v), serial (%d, %v, %v)",
						trial, workers, got.Failed, got.Sel, got.Exact, want.Failed, want.Sel, want.Exact)
				}
			}
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
			in.Reset()
			want := BranchAndBoundWith(in, seed, NewBudget(0), BoundResidual)
			in.Reset()

			for _, workers := range workerCounts {
				got := BranchAndBoundParallelWith(in, func() Instance { return in.Clone() }, seed, NewBudget(0), workers, BoundResidual)
				if got.Failed != want.Failed || got.Exact != want.Exact || !reflect.DeepEqual(got.Sel, want.Sel) {
					t.Errorf("trial %d workers=%d: got (%d, %v, %v), serial (%d, %v, %v)",
						trial, workers, got.Failed, got.Sel, got.Exact, want.Failed, want.Sel, want.Exact)
				}
			}
		}
	})
}

// TestStealLeaseAccounting pins the leased-budget contract: leases are
// settled at worker exit, so Used() is exactly the states entered, not
// the states claimed.
func TestStealLeaseAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	members := randomMembers(rng, 16, 3, 100)
	const m, k, s = 16, 5, 2
	mk := func() Instance { return newCoverInstance(m, k, s, members) }

	// Seed with the exact optimum so the incumbent never moves: prune
	// decisions match the serial run state for state and the visited set
	// — hence the count — is identical at any worker count.
	in := newCoverInstance(m, k, s, members)
	seed := Greedy(in)
	in.Reset()
	exact := BranchAndBoundWith(in, seed, NewBudget(0), BoundStatic)

	for _, workers := range []int{2, 3, 8} {
		// Unlimited: every lease chunk's unused remainder comes back.
		bud := NewBudget(0)
		probe := mk()
		res := BranchAndBoundParallelWith(probe, mk, exact, bud, workers, BoundStatic)
		if bud.Used() != exact.Visited || res.Visited != exact.Visited {
			t.Errorf("workers=%d unlimited: used %d visited %d, serial visited %d — leases leaked",
				workers, bud.Used(), res.Visited, exact.Visited)
		}

		// Ample limit: the search finishes without exhausting, and the
		// limit's unclaimed tail must not be counted as used.
		bud = NewBudget(exact.Visited * 10)
		probe = mk()
		res = BranchAndBoundParallelWith(probe, mk, exact, bud, workers, BoundStatic)
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
			probe = mk()
			res = BranchAndBoundParallelWith(probe, mk, seed, bud, workers, BoundStatic)
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
	mk := func() Instance { return newCoverInstance(m, k, s, members) }

	in := newCoverInstance(m, k, s, members)
	seed := Greedy(in)
	in.Reset()
	exact := BranchAndBoundWith(in, seed, NewBudget(0), BoundStatic)

	const workers = 32 // far more than cores: steal scans and idle spins collide constantly
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			bud := NewBudget(int64(3 + round*17))
			for bud.Remaining() > 0 {
				probe := mk()
				res := BranchAndBoundParallelWith(probe, mk, seed, bud, workers, BoundStatic)
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
