package search

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// newCoverInstance builds the HitInstance of a cover problem: object j
// fails once s of the candidates listed in members[j] (distinct raw
// candidate indices) are in the attack set. Assign reindexes the
// candidates into the canonical order, the branch-and-bound drivers'
// required invariant.
func newCoverInstance(m, k, s int, members [][]int) *HitInstance {
	raw := make([][]Hit, m)
	for obj, ms := range members {
		for _, c := range ms {
			raw[c] = append(raw[c], Hit{Obj: int32(obj), C: 1})
		}
	}
	in := NewHitInstance(s, len(members))
	in.Assign(k, raw, nil, nil, true)
	return in
}

// TestDriversLeaveInstanceClean pins the one between-search state every
// driver returns the instance in: after Exhaustive, Greedy, a cold and a
// warm WarmSeed, and BranchAndBound at 1 and 3 workers, with an
// unlimited and an exhausted budget, on C = 1, aggregated and weighted
// instances, every failure counter is 0 and the root gain vector equals
// a fresh Gains pass, so the next search needs no reset.
func TestDriversLeaveInstanceClean(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for _, kind := range []struct {
		name                string
		aggregate, weighted bool
	}{{"C=1", false, false}, {"aggregated", true, false}, {"weighted", false, true}} {
		for trial := 0; trial < 4; trial++ {
			in := randomModel(rng, 9, 30, 3, 2, 3, kind.aggregate, kind.weighted).build()
			check := func(driver string) {
				t.Helper()
				tag := fmt.Sprintf("%s trial %d: %s", kind.name, trial, driver)
				if i := slices.IndexFunc(in.cnt, func(c int32) bool { return c != 0 }); i >= 0 {
					t.Fatalf("%s left the counter of object %d at %d", tag, i, in.cnt[i])
				}
				g := make([]int64, in.Len())
				in.Gains(g)
				if !slices.Equal(in.root, g) {
					t.Fatalf("%s: root gain vector %v, fresh Gains %v", tag, in.root, g)
				}
			}
			ex := Exhaustive(in)
			check("Exhaustive")
			Greedy(in)
			check("Greedy")
			seed, _ := WarmSeed(in, nil)
			check("cold WarmSeed")
			WarmSeed(in, in.Units(slices.Clone(ex.Sel)))
			check("warm WarmSeed")
			for _, workers := range []int{1, 3} {
				for _, limit := range []int64{0, 3} {
					res := BranchAndBound(in, seed, NewBudget(limit), workers, BoundResidual)
					if limit > 0 && res.Exact {
						t.Fatalf("%s trial %d: a budget of %d states left the search exact", kind.name, trial, limit)
					}
					check(fmt.Sprintf("BranchAndBound(workers=%d, budget=%d)", workers, limit))
				}
			}
		}
	}
}

// bruteForce evaluates every K-subset from scratch, sharing no code with
// the drivers.
func bruteForce(m, k, s int, members [][]int) int {
	sel := make([]int, k)
	best := 0
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			failed := 0
			for _, ms := range members {
				hit := 0
				for _, c := range ms {
					for _, chosen := range sel {
						if c == chosen {
							hit++
							break
						}
					}
				}
				if hit >= s {
					failed++
				}
			}
			if failed > best {
				best = failed
			}
			return
		}
		for i := start; i <= m-(k-depth); i++ {
			sel[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return best
}

func randomMembers(rng *rand.Rand, m, r, b int) [][]int {
	members := make([][]int, b)
	for j := range members {
		perm := rng.Perm(m)
		members[j] = append([]int(nil), perm[:r]...)
	}
	return members
}

// TestDriversAgreeOnRandomInstances checks every driver against brute
// force on random cover instances, and on tight ones: draws whose
// optimum is exactly one above the greedy seed, kept until 40 are
// found. There an off-by-one prune (cutting a subtree whose bound only
// reaches incumbent + 1) drops the optimum and returns the seed, which
// the loose random draws rarely expose.
func TestDriversAgreeOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		m := 6 + rng.Intn(5)
		r := 2 + rng.Intn(2)
		b := 5 + rng.Intn(20)
		s := 1 + rng.Intn(r)
		k := 1 + rng.Intn(m-1)
		members := randomMembers(rng, m, r, b)
		checkDriversAgree(t, fmt.Sprintf("trial %d", trial), m, k, s, members, bruteForce(m, k, s, members))
	}
	rng = rand.New(rand.NewSource(73))
	for tight := 0; tight < 40; {
		m := 6 + rng.Intn(5)
		r := 2 + rng.Intn(2)
		b := 5 + rng.Intn(20)
		s := 1 + rng.Intn(r)
		k := 2 + rng.Intn(m-2)
		members := randomMembers(rng, m, r, b)
		want := bruteForce(m, k, s, members)
		if Greedy(newCoverInstance(m, k, s, members)).Failed != want-1 {
			continue
		}
		checkDriversAgree(t, fmt.Sprintf("tight %d", tight), m, k, s, members, want)
		tight++
	}
}

// checkDriversAgree runs Exhaustive, Greedy and BranchAndBound (both
// bounds, one and four workers, greedy and empty seeds) on one cover
// instance whose brute-force optimum is want.
func checkDriversAgree(t *testing.T, tag string, m, k, s int, members [][]int, want int) {
	t.Helper()
	in := newCoverInstance(m, k, s, members)
	ex := Exhaustive(in)
	if ex.Failed != want {
		t.Errorf("%s (m=%d b=%d s=%d k=%d): Exhaustive = %d, brute force = %d",
			tag, m, len(members), s, k, ex.Failed, want)
	}
	if !ex.Exact || len(ex.Sel) != k {
		t.Errorf("%s: Exhaustive exact=%v |sel|=%d", tag, ex.Exact, len(ex.Sel))
	}

	greedy := Greedy(in)
	if greedy.Failed > want {
		t.Errorf("%s: Greedy %d exceeds optimum %d", tag, greedy.Failed, want)
	}

	// Both bounds at one and four workers: dedup, the gain-vector
	// bounds and the parent-gain filter all run on the HitInstance,
	// and the four-worker runs search clones sharing its tables.
	// The empty seed makes the search find the optimum itself
	// rather than confirm a greedy seed that is often optimal.
	for _, bound := range []Bound{BoundStatic, BoundResidual} {
		for _, workers := range []int{1, 4} {
			for _, seed := range []Result{greedy, {}} {
				bnb := BranchAndBound(in, seed, NewBudget(0), workers, bound)
				if bnb.Failed != want || !bnb.Exact {
					t.Errorf("%s %v workers=%d seed %d: BranchAndBound = %d exact=%v, brute force = %d",
						tag, bound, workers, seed.Failed, bnb.Failed, bnb.Exact, want)
				}
				if bnb.Visited > ex.Visited {
					t.Errorf("%s %v workers=%d seed %d: B&B visited %d > exhaustive %d: pruning broken",
						tag, bound, workers, seed.Failed, bnb.Visited, ex.Visited)
				}
			}
		}
	}
}

func TestBudgetSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	members := randomMembers(rng, 18, 3, 120)
	const k, s = 5, 2
	mk := func() *HitInstance { return newCoverInstance(18, k, s, members) }

	in := mk()
	seed := Greedy(in)
	full := BranchAndBound(in, seed, NewBudget(0), 1, BoundResidual)
	if !full.Exact {
		t.Fatal("unbounded search not exact")
	}

	for _, limit := range []int64{1, 7, 50} {
		in := mk()
		seed := Greedy(in)
		bud := NewBudget(limit)
		res := BranchAndBound(in, seed, bud, 1, BoundResidual)
		if res.Exact {
			t.Errorf("budget %d: search claims exactness", limit)
		}
		if res.Visited != limit || bud.Used() != limit {
			t.Errorf("budget %d: visited %d, used %d — one state per unit, no overshoot",
				limit, res.Visited, bud.Used())
		}
		if !bud.Exhausted() {
			t.Errorf("budget %d: not exhausted", limit)
		}
		if res.Failed < seed.Failed || res.Failed > full.Failed {
			t.Errorf("budget %d: result %d outside [greedy %d, exact %d]",
				limit, res.Failed, seed.Failed, full.Failed)
		}
	}

	// A shared budget spans sub-searches: the second search starts where
	// the first left off.
	bud := NewBudget(10)
	in1, in2 := mk(), mk()
	BranchAndBound(in1, Result{}, bud, 1, BoundResidual)
	first := bud.Used()
	if first != 10 {
		t.Fatalf("first search consumed %d of 10", first)
	}
	res := BranchAndBound(in2, Result{}, bud, 1, BoundResidual)
	if res.Exact || bud.Used() != 10 {
		t.Errorf("drained budget allowed more work: exact=%v used=%d", res.Exact, bud.Used())
	}
}

func TestZeroBudgetValueIsUnlimited(t *testing.T) {
	var bud Budget
	for i := 0; i < 1000; i++ {
		if bud.Lease(1) != 1 {
			t.Fatal("zero Budget refused a lease")
		}
	}
	if bud.Used() != 1000 || bud.Exhausted() {
		t.Errorf("used %d exhausted %v", bud.Used(), bud.Exhausted())
	}
}
