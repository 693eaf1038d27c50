package search

import (
	"math/rand"
	"sort"
	"testing"
)

// coverInstance is a minimal Instance for tests: object j fails once s
// of the candidates listed in members[j] are in the attack set.
type coverInstance struct {
	k, s    int
	members [][]int // per object, candidate indices hosting a replica
	objsOf  [][]int // per candidate, object indices
	cnt     []int
	loads   []int64
}

// newCoverInstance reindexes raw candidates into descending-load order,
// the branch-and-bound drivers' required invariant.
func newCoverInstance(m, k, s int, members [][]int) *coverInstance {
	rawLoads := make([]int64, m)
	rawObjs := make([][]int, m)
	for obj, ms := range members {
		for _, c := range ms {
			rawObjs[c] = append(rawObjs[c], obj)
			rawLoads[c]++
		}
	}
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if rawLoads[order[a]] != rawLoads[order[b]] {
			return rawLoads[order[a]] > rawLoads[order[b]]
		}
		return order[a] < order[b]
	})
	in := &coverInstance{k: k, s: s, members: members}
	in.objsOf = make([][]int, m)
	in.loads = make([]int64, m)
	for i, raw := range order {
		in.objsOf[i] = rawObjs[raw]
		in.loads[i] = rawLoads[raw]
	}
	in.cnt = make([]int, len(members))
	return in
}

func (in *coverInstance) Len() int         { return len(in.objsOf) }
func (in *coverInstance) K() int           { return in.k }
func (in *coverInstance) S() int           { return in.s }
func (in *coverInstance) Load(i int) int64 { return in.loads[i] }

func (in *coverInstance) Add(i int) int {
	newly := 0
	for _, obj := range in.objsOf[i] {
		in.cnt[obj]++
		if in.cnt[obj] == in.s {
			newly++
		}
	}
	return newly
}

func (in *coverInstance) Remove(i int) {
	for _, obj := range in.objsOf[i] {
		in.cnt[obj]--
	}
}

func (in *coverInstance) Marginal(i int) int {
	gain := 0
	for _, obj := range in.objsOf[i] {
		if in.cnt[obj] == in.s-1 {
			gain++
		}
	}
	return gain
}

func (in *coverInstance) Reset() {
	for i := range in.cnt {
		in.cnt[i] = 0
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

func TestDriversAgreeOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		m := 6 + rng.Intn(5)
		r := 2 + rng.Intn(2)
		b := 5 + rng.Intn(20)
		s := 1 + rng.Intn(r)
		k := 1 + rng.Intn(m-1)
		members := randomMembers(rng, m, r, b)
		want := bruteForce(m, k, s, members)

		in := newCoverInstance(m, k, s, members)
		ex := Exhaustive(in)
		if ex.Failed != want {
			t.Errorf("trial %d (m=%d r=%d b=%d s=%d k=%d): Exhaustive = %d, brute force = %d",
				trial, m, r, b, s, k, ex.Failed, want)
		}
		if !ex.Exact || len(ex.Sel) != k {
			t.Errorf("trial %d: Exhaustive exact=%v |sel|=%d", trial, ex.Exact, len(ex.Sel))
		}

		greedy := Greedy(in)
		if greedy.Failed > want {
			t.Errorf("trial %d: Greedy %d exceeds optimum %d", trial, greedy.Failed, want)
		}
		in.Reset()

		bnb := BranchAndBoundWith(in, greedy, NewBudget(0), BoundResidual)
		if bnb.Failed != want {
			t.Errorf("trial %d: BranchAndBoundWith = %d, brute force = %d", trial, bnb.Failed, want)
		}
		if !bnb.Exact {
			t.Error("unbounded BranchAndBoundWith must be exact")
		}
		if bnb.Visited > ex.Visited {
			t.Errorf("trial %d: B&B visited %d > exhaustive %d: pruning broken",
				trial, bnb.Visited, ex.Visited)
		}

		par, err := BranchAndBoundParallelWith(newCoverInstance(m, k, s, members), func() (Instance, error) {
			return newCoverInstance(m, k, s, members), nil
		}, greedy, NewBudget(0), 4, BoundResidual)
		if err != nil {
			t.Fatal(err)
		}
		if par.Failed != want || !par.Exact {
			t.Errorf("trial %d: parallel = %d exact=%v, want %d exact", trial, par.Failed, par.Exact, want)
		}
	}
}

func TestBudgetSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	members := randomMembers(rng, 18, 3, 120)
	const k, s = 5, 2
	mk := func() *coverInstance { return newCoverInstance(18, k, s, members) }

	in := mk()
	seed := Greedy(in)
	in.Reset()
	full := BranchAndBoundWith(in, seed, NewBudget(0), BoundResidual)
	if !full.Exact {
		t.Fatal("unbounded search not exact")
	}

	for _, limit := range []int64{1, 7, 50} {
		in := mk()
		seed := Greedy(in)
		in.Reset()
		bud := NewBudget(limit)
		res := BranchAndBoundWith(in, seed, bud, BoundResidual)
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
	BranchAndBoundWith(in1, Result{}, bud, BoundResidual)
	first := bud.Used()
	if first != 10 {
		t.Fatalf("first search consumed %d of 10", first)
	}
	res := BranchAndBoundWith(in2, Result{}, bud, BoundResidual)
	if res.Exact || bud.Used() != 10 {
		t.Errorf("drained budget allowed more work: exact=%v used=%d", res.Exact, bud.Used())
	}
}

func TestZeroBudgetValueIsUnlimited(t *testing.T) {
	var bud Budget
	for i := 0; i < 1000; i++ {
		if !bud.Visit() {
			t.Fatal("zero Budget refused a visit")
		}
	}
	if bud.Used() != 1000 || bud.Exhausted() {
		t.Errorf("used %d exhausted %v", bud.Used(), bud.Exhausted())
	}
}
