package search

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// pairOverlap is the brute-force ov(i, j): the total weight of the
// objects both hit lists hold, each counted once.
func pairOverlap(a, b []Hit, w []int64) int64 {
	in := make(map[int32]bool, len(a))
	for _, h := range a {
		in[h.Obj] = true
	}
	var ov int64
	for _, h := range b {
		if in[h.Obj] {
			if w == nil {
				ov++
			} else {
				ov += w[h.Obj]
			}
		}
	}
	return ov
}

// TestParentGainFilter pins the parent-gain filter's two primitives
// against their definitions and its effect on the scan. At random
// partial states — C = 1, C > 1 and weighted — Gains equals one
// Marginal call per candidate and MaxOverlap equals the brute-force
// pairwise maximum over later candidates, or 0 at s = 1, where no gain
// can rise (TestGainsNeverRiseAtS1). On a flat-load, node-like
// instance (r = 3, s = 2, K = 4, loads within a replica or two of each
// other, so the load cut rarely fires) the filter returns the
// static-bound result and the pinned visited count with the pinned
// number of Marginal calls; TestChildSkip runs the same search with the
// bounds made vacuous.
func TestParentGainFilter(t *testing.T) {
	t.Run("primitives", func(t *testing.T) {
		rng := rand.New(rand.NewSource(173))
		for trial := 0; trial < 60; trial++ {
			m := 4 + rng.Intn(8)
			b := 4 + rng.Intn(25)
			s := 1 + rng.Intn(3)
			var (
				in    *HitInstance
				lists [][]Hit
				w     []int64
			)
			switch trial % 3 {
			case 0: // C = 1 strip
				in, lists = randomHitInstance(rng, m, min(3, m), b, s, k1(m), 1)
			case 1: // generic C
				in, lists = randomHitInstance(rng, m, min(3, m), b, s, k1(m), 3)
			case 2: // weighted
				w = make([]int64, b)
				for obj := range w {
					w[obj] = int64(rng.Intn(7))
				}
				in, lists = randWeightedInstance(rng, m, b, k1(m), s, w)
			}
			want := make([]int64, m)
			for i := 0; i < m && s > 1; i++ {
				for j := i + 1; j < m; j++ {
					want[i] = max(want[i], pairOverlap(lists[i], lists[j], w))
				}
			}
			dst := make([]int64, m)
			var chosen []int
			for step := 0; step < 12; step++ {
				for j := range dst {
					dst[j] = -7
				}
				in.Gains(dst)
				for j := 0; j < m; j++ {
					if dst[j] != int64(in.Marginal(j)) {
						t.Fatalf("trial %d chosen %v: Gains[%d] = %d, Marginal %d",
							trial, chosen, j, dst[j], in.Marginal(j))
					}
				}
				// The overlaps are state-independent: asked at any state,
				// cached or fresh, they match the pairwise count.
				checkOverlaps := func() {
					for i := 0; i < m; i++ {
						if got := in.MaxOverlap(i); got != want[i] {
							t.Fatalf("trial %d chosen %v: MaxOverlap(%d) = %d, brute force %d", trial, chosen, i, got, want[i])
						}
					}
				}
				checkOverlaps()
				if c := rng.Intn(m); !contains(chosen, c) {
					in.Add(c)
					chosen = append(chosen, c)
				}
			}
			for _, c := range chosen {
				in.Remove(c)
			}
		}
	})

	t.Run("flat", func(t *testing.T) {
		const m, b, s, k = 24, 120, 2, 4
		in := flatInstance(rand.New(rand.NewSource(179)), m, b, s, k, false)
		if lo, hi := in.Load(m-1), in.Load(0); hi-lo > 2 {
			t.Fatalf("loads %d..%d are not flat", lo, hi)
		}
		want := Exhaustive(in)
		seed := Greedy(in)

		const (
			pinnedVisited = 809
			pinnedCalls   = 216
		)
		got, calls := countedRun(in, seed, NewBudget(0), 1, BoundResidual)
		ref := BranchAndBound(in, seed, NewBudget(0), 1, BoundStatic)
		if got.Failed != want.Failed || !got.Exact || !reflect.DeepEqual(got.Sel, ref.Sel) {
			t.Fatalf("filter (%d, %v, exact=%v), static (%d, %v), exhaustive %d",
				got.Failed, got.Sel, got.Exact, ref.Failed, ref.Sel, want.Failed)
		}
		if got.Visited != pinnedVisited || calls != pinnedCalls {
			t.Errorf("filter: visited %d, %d Marginal calls; pinned %d and %d",
				got.Visited, calls, pinnedVisited, pinnedCalls)
		}
	})
}

// flatInstance builds a node-like HitInstance in canonical order: b
// objects with r = 3 replicas each, every replica placed on a
// least-loaded candidate (random tie-break), so loads differ by at most
// one replica. weighted draws object weights 1..4 (weighted loads then
// spread more).
func flatInstance(rng *rand.Rand, m, b, s, k int, weighted bool) *HitInstance {
	const r = 3
	lists := make([][]Hit, m)
	cnt := make([]int, m)
	for obj := 0; obj < b; obj++ {
		for rep := 0; rep < r; rep++ {
			best := -1
			for _, c := range rng.Perm(m) {
				if n := len(lists[c]); n > 0 && lists[c][n-1].Obj == int32(obj) {
					continue
				}
				if best < 0 || cnt[c] < cnt[best] {
					best = c
				}
			}
			lists[best] = append(lists[best], Hit{Obj: int32(obj), C: 1})
			cnt[best]++
		}
	}
	var w []int64
	if weighted {
		w = make([]int64, b)
		for obj := range w {
			w[obj] = int64(1 + rng.Intn(4))
		}
	}
	in := NewHitInstance(s, b)
	in.Assign(k, lists, w, nil, true)
	return in
}

// TestChildSkip pins the gain-vector search on TestParentGainFilter's
// flat instance. The child skip at the root (three picks below it)
// drops whole subtrees, and the node-entry prune leaves a node whose
// own gains bound every child below the snapshot without charging one,
// so the search enters 809 states where it would enter 2024 without
// them (1681 with the child skip alone, which charged each child it
// skipped); the skip with two picks left and the scan filter keep the
// final-level Marginal calls as pinned there. The reference is the
// same search with every overlap overstated past any snapshot, which
// turns the prune, both skips and the scan filter off and keeps the
// search exact: it enters 2024 states, makes one Add per state but
// the root and the unfiltered scan's Marginal calls. Every descent into
// a node with two or more picks left patches one vector, and a lone
// worker sweeps the CSR once, at the root. Entering every task as a
// stolen one — each refilling its depth's vector with Gains — changes
// none of the other counts. The vectors come from the instance's
// scratch, so once it has served a search, the next allocates none for
// them; a K = 1 search builds no overlap table.
func TestChildSkip(t *testing.T) {
	const m, b, s, k = 24, 120, 2, 4
	in := flatInstance(rand.New(rand.NewSource(179)), m, b, s, k, false)
	seed := Greedy(in)

	const (
		pinnedVisited  = 809
		pinnedCalls    = 216
		pinnedAdds     = 266
		pinnedPatches  = 156
		vacuousVisited = 2024
		vacuousAdds    = vacuousVisited - 1
		vacuousCalls   = 10626
		vacuousPatches = 252
	)
	ps := newSearchRun(in, seed, NewBudget(0), 1, BoundResidual)
	got := ps.run()
	if got.Visited != pinnedVisited || ps.marginals != pinnedCalls || ps.adds != pinnedAdds || ps.patches != pinnedPatches || ps.refills != 1 {
		t.Errorf("visited %d, %d Marginal calls, %d Add calls, %d patches, %d refills; pinned %d, %d, %d, %d and 1",
			got.Visited, ps.marginals, ps.adds, ps.patches, ps.refills, pinnedVisited, pinnedCalls, pinnedAdds, pinnedPatches)
	}
	// The table is built once and shared with every later run on in:
	// overstate through a private slice, then put the exact one back.
	exact := in.ov
	overstate := func(w *stealWorker) {
		w.in.ov = make([]int64, m)
		for j := range w.in.ov {
			w.in.ov[j] = b + 1 // above any snapshot or gain
		}
	}
	vac, res := handRun(in, seed, BoundResidual, overstate, nil)
	in.ov = exact
	if res.Failed != got.Failed || !reflect.DeepEqual(res.Sel, got.Sel) || !res.Exact ||
		res.Visited != vacuousVisited || vac.adds != vacuousAdds || vac.marginals != vacuousCalls || vac.patches != vacuousPatches {
		t.Errorf("vacuous bounds: %+v with %d Add calls, %d Marginal calls, %d patches; want (%d, %v) exact in %d states, %d, %d, %d",
			res, vac.adds, vac.marginals, vac.patches, got.Failed, got.Sel, vacuousVisited, vacuousAdds, vacuousCalls, vacuousPatches)
	}
	static := newSearchRun(in, seed, NewBudget(0), 1, BoundStatic)
	if res := static.run(); static.adds != res.Visited-1 {
		t.Errorf("static bound: %d Add calls for %d visited states, want one per state but the root", static.adds, res.Visited)
	}

	if a := testing.AllocsPerRun(5, func() { in.gainScratch(k - 1) }); a != 0 {
		t.Errorf("gainScratch allocates %v times per search once the instance has served one", a)
	}

	re, res := stolenRun(in, seed, BoundResidual)
	if !reflect.DeepEqual(res, got) || re.marginals != ps.marginals || re.adds != ps.adds || re.patches != ps.patches {
		t.Errorf("every task stolen: %+v with %d Marginal calls, %d Add calls, %d patches; want %+v, %d, %d, %d",
			res, re.marginals, re.adds, re.patches, got, ps.marginals, ps.adds, ps.patches)
	}

	one := flatInstance(rand.New(rand.NewSource(179)), m, b, s, 1, false)
	if res := BranchAndBound(one, Result{}, NewBudget(0), 1, BoundResidual); !res.Exact || len(one.ov) != 0 || len(exact) != m {
		t.Errorf("K = 1: exact=%v with a %d-entry overlap table; K = 4 built %d entries for %d candidates", res.Exact, len(one.ov), len(exact), m)
	}
}

// TestChildSkipShallowerSteal replays, on one goroutine, a thief whose
// next steal is shallower than the one it last refilled at — a schedule
// that needs three or more workers, since with two the shallowest-first
// steal order hands a thief the shallower task first. With a the first
// candidate of the serial optimum, the thief's first steal takes node
// [a, a+1]'s children, so it refills its depth-2 vector only; its next
// steal takes node [a]'s children from a+2 on, where the optimum lies,
// and its prefix [a] is a prefix of the thief's path. The thief's
// depth-1 vector describes no node it entered: read as current, it
// would understate the gains below [a] and skip children that reach
// the snapshot. The result must be the serial one, and under -tags
// invariants every two-picks-left vector must be fresh. A third steal
// below [a] finds that node's vector current and sweeps nothing; a
// fourth, below [a+1], must not take [a]'s depth-1 vector for its own.
func TestChildSkipShallowerSteal(t *testing.T) {
	const m, b, s, k = 24, 120, 2, 4
	in := flatInstance(rand.New(rand.NewSource(179)), m, b, s, k, false)
	want := BranchAndBound(in, Result{}, NewBudget(0), 1, BoundResidual)
	a := want.Sel[0]
	if want.Sel[1] <= a+1 {
		t.Fatalf("optimum %v: node [%d, %d] would hold it", want.Sel, a, a+1)
	}
	fa := in.Add(a)
	fab := fa + in.Add(a+1)
	in.Remove(a + 1)
	in.Remove(a)

	// A seed one below the optimum, as a near-optimal greedy seed would
	// be: the snapshot starts close enough that understated gains skip.
	ps := newSearchRun(in, Result{Failed: want.Failed - 1}, NewBudget(0), 2, BoundResidual)
	thief := ps.peers[1]
	thief.init()
	steal := func(st task) {
		ps.peers[0].deq.push(st)
		t, _ := thief.next() // the thief's deque is empty: it steals st
		for {
			thief.runTask(t)
			if thief.deq.empty() {
				return
			}
			t, _ = thief.next()
		}
	}
	steal(task{prefix: []int{a, a + 1}, start: a + 2, failed: fab, loadSum: in.Load(a) + in.Load(a+1)})
	steal(task{prefix: []int{a}, start: a + 2, failed: fa, loadSum: in.Load(a)})
	if thief.refills != 2 {
		t.Errorf("thief refilled %d times in two steals off its path, want 2", thief.refills)
	}
	steal(task{prefix: []int{a}, start: m - 3, failed: fa, loadSum: in.Load(a)})
	if thief.refills != 2 {
		t.Errorf("thief refilled %d times after a steal below its current node [%d], want 2", thief.refills, a)
	}
	c := a + 1
	fc := in.Add(c)
	in.Remove(c)
	steal(task{prefix: []int{c}, start: c + 1, failed: fc, loadSum: in.Load(c)})
	if thief.refills != 3 {
		t.Errorf("thief refilled %d times after a steal below [%d], want 3", thief.refills, c)
	}
	thief.exit()
	if got := ps.best; got.Failed != want.Failed || !reflect.DeepEqual(got.Sel, want.Sel) {
		t.Errorf("thief found (%d, %v), serial (%d, %v)", got.Failed, got.Sel, want.Failed, want.Sel)
	}
}

// stolenRun is BranchAndBound at one worker with every task entered as
// a thief enters it: the worker's gain vectors are dropped before each
// task, so each one refills its depth with Gains.
func stolenRun(in *HitInstance, seed Result, bound Bound) (*searchRun, Result) {
	return handRun(in, seed, bound, nil, func(w *stealWorker) { clear(w.gvOK) })
}

// handRun is BranchAndBound at one worker, driven task by task: prep
// (if any) runs once after the worker's init, each (if any) before
// every task.
func handRun(in *HitInstance, seed Result, bound Bound, prep, each func(*stealWorker)) (*searchRun, Result) {
	ps := newSearchRun(in, seed, NewBudget(0), 1, bound)
	w := ps.peers[0]
	w.init()
	if prep != nil {
		prep(w)
	}
	if t, ok := ps.enterRoot(w); ok {
		w.deq.push(t)
	}
	for {
		t, ok := w.next()
		if !ok {
			break
		}
		if each != nil {
			each(w)
		}
		w.runTask(t)
	}
	w.exit()
	ps.marginals, ps.adds, ps.patches, ps.refills = w.marginals, w.adds, w.patches, w.refills
	ps.best.Visited = ps.bud.Used()
	ps.best.Exact = !ps.exhausted.Load()
	return ps, ps.best
}

// FuzzGainPatch is patchGains' exactness oracle. Along a random walk
// of Adds and Removes, every Add returns what Marginal said for it, and
// two gain vectors equal a fresh Gains after every step, on C = 1 strips, generic C, and weighted instances of both: the
// one kept the way the search keeps it — the parent's vector copied and
// patched after each Add, dropped on each Remove of the latest pick —
// while the walk stays depth-first, and the one kept the way Greedy
// keeps it — a single vector patched after every Add and every Remove,
// of any chosen candidate. Adds pick any unchosen candidate, not only
// later ones, so every holder's update is checked.
func FuzzGainPatch(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(20), uint8(1), uint8(0))
	f.Add(int64(2), uint8(6), uint8(12), uint8(2), uint8(1))
	f.Add(int64(3), uint8(9), uint8(18), uint8(0), uint8(2))
	f.Add(int64(4), uint8(7), uint8(25), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, m8, b8, s8, kind uint8) {
		m := 2 + int(m8%10)
		b := 1 + int(b8%30)
		s := 1 + int(s8%3)
		rng := rand.New(rand.NewSource(seed))
		weights := func() []int64 {
			w := make([]int64, b)
			for obj := range w {
				w[obj] = int64(rng.Intn(7))
			}
			return w
		}
		var in *HitInstance
		switch kind % 4 {
		case 0: // C = 1 strip
			in, _ = randomHitInstance(rng, m, min(3, m), b, s, k1(m), 1)
		case 1: // generic C
			in, _ = randomHitInstance(rng, m, min(3, m), b, s, k1(m), 3)
		case 2: // weighted, generic C
			in, _ = randWeightedInstance(rng, m, b, k1(m), s, weights())
		case 3: // weighted C = 1 strip
			var lists [][]Hit
			in, lists = randomHitInstance(rng, m, min(3, m), b, s, k1(m), 1)
			in.Assign(k1(m), lists, weights(), nil, true)
		}
		want := make([]int64, m)
		stack := [][]int64{make([]int64, m)}
		in.Gains(stack[0])
		walk := slices.Clone(stack[0]) // Greedy's way: one vector, patched through Removes too
		var chosen []int
		for step := 0; step < 4*m; step++ {
			if n := len(chosen); n == m || (n > 0 && rng.Intn(3) == 0) {
				// Remove any chosen candidate, as Greedy's swaps do;
				// the search only ever removes the latest.
				x := n - 1
				if rng.Intn(2) == 0 {
					x = rng.Intn(n)
				}
				in.Remove(chosen[x])
				in.patchGains(chosen[x], walk, true)
				chosen = slices.Delete(chosen, x, x+1)
				if stack != nil && x == n-1 {
					stack = stack[:n]
				} else {
					stack = nil // the search's vectors describe prefixes only
				}
			} else {
				c := rng.Intn(m)
				for contains(chosen, c) {
					c = (c + 1) % m
				}
				if mg, got := in.Marginal(c), in.Add(c); got != mg {
					t.Fatalf("step %d, chosen %v: Add(%d) = %d, Marginal said %d", step, chosen, c, got, mg)
				}
				in.patchGains(c, walk, false)
				if stack != nil {
					g := append([]int64(nil), stack[len(stack)-1]...)
					in.patchGains(c, g, false)
					stack = append(stack, g)
				}
				chosen = append(chosen, c)
			}
			in.Gains(want)
			if stack != nil {
				if got := stack[len(stack)-1]; !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d, chosen %v: patched gains %v, Gains %v", step, chosen, got, want)
				}
			}
			if !reflect.DeepEqual(walk, want) {
				t.Fatalf("step %d, chosen %v: gains patched through removals %v, Gains %v", step, chosen, walk, want)
			}
		}
	})
}

// TestRestBound pins restBound against its definition: rest[j] is the
// best sum over exactly q candidates j <= j_1 < ... < j_q of
// g[j_x] + (q−x)·MaxOverlap(j_x), and node[j] the same over exactly
// q+1, found here by enumerating every subset in exact (big)
// arithmetic, and saturated at MaxInt64 — on random gains and
// overlaps, small ones and ones near MaxInt64/2, where the sums would
// wrap. Both rows are checked from start on, wherever enough
// candidates are left.
func TestRestBound(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	maxInt := new(big.Int).SetInt64(math.MaxInt64)
	for trial := 0; trial < 300; trial++ {
		m := 3 + rng.Intn(7)
		q := 1 + rng.Intn(min(4, m-1))
		start := rng.Intn(m - q)
		huge := trial%3 == 2
		draw := func() int64 {
			if huge {
				return math.MaxInt64/2 - rng.Int63n(1000)
			}
			return rng.Int63n(9)
		}
		g, ov := make([]int64, m), make([]int64, m)
		for j := range g {
			g[j], ov[j] = draw(), draw()
		}
		w := &stealWorker{ps: &searchRun{m: m}, in: &HitInstance{ov: ov}, col: make([]int64, q+2)}
		rest, node := make([]int64, m), make([]int64, m)
		w.restBound(g, rest, node, start, q)
		// best is B_n(j): the best n-pick sum from j on, saturated.
		best := func(n, j int) int64 {
			top := new(big.Int)
			var pick func(from, x int, sum *big.Int)
			pick = func(from, x int, sum *big.Int) {
				if x == n {
					if sum.Cmp(top) > 0 {
						top.Set(sum)
					}
					return
				}
				for c := from; c <= m-(n-x); c++ {
					term := new(big.Int).Mul(big.NewInt(int64(n-1-x)), big.NewInt(ov[c]))
					term.Add(term, big.NewInt(g[c]))
					pick(c+1, x+1, new(big.Int).Add(sum, term))
				}
			}
			pick(j, 0, new(big.Int))
			if top.Cmp(maxInt) > 0 {
				top.Set(maxInt)
			}
			return top.Int64()
		}
		for j := start; j <= m-q; j++ {
			if want := best(q, j); rest[j] != want {
				t.Fatalf("trial %d (m=%d q=%d start=%d g=%v ov=%v): rest[%d] = %d, want %d", trial, m, q, start, g, ov, j, rest[j], want)
			}
			if j > m-q-1 {
				continue
			}
			if want := best(q+1, j); node[j] != want {
				t.Fatalf("trial %d (m=%d q=%d start=%d g=%v ov=%v): node[%d] = %d, want %d", trial, m, q, start, g, ov, j, node[j], want)
			}
		}
	}
}

// FuzzInteriorSkip is the child skip's exactness oracle at K = 3..5,
// where it also fires with two or more picks below a child and drops
// the child's whole subtree. BranchAndBound at one and three workers
// must return Exhaustive's damage, exactly, with the driver contract's
// witness (the static bound's: the seed on a tie, else the lex-smallest
// optimum), on instances with replica counts C up to 3, optionally
// weighted and optionally with runs duplicated (kind's bits 0 and 1).
// Residual at one worker never visits more states than static.
func FuzzInteriorSkip(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(20), uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(7), uint8(28), uint8(0), uint8(1), uint8(1))
	f.Add(int64(3), uint8(11), uint8(17), uint8(2), uint8(2), uint8(2))
	f.Add(int64(4), uint8(8), uint8(25), uint8(1), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, m8, b8, s8, k8, kind uint8) {
		m := 5 + int(m8%7)
		b := 1 + int(b8%30)
		s := 1 + int(s8%3)
		k := 3 + int(k8%3)
		rng := rand.New(rand.NewSource(seed))
		in, lists := randomHitInstance(rng, m, 3, b, s, k, 3)
		var w []int64
		if kind&1 != 0 {
			w = make([]int64, b)
			for obj := range w {
				w[obj] = int64(rng.Intn(7))
			}
		}
		if kind&2 != 0 {
			// Units j-1 and j tie on load and sit next to each other once
			// Assign orders them, so DupOfPrev collapses them.
			for range 1 + rng.Intn(3) {
				j := 1 + rng.Intn(m-1)
				lists[j] = lists[j-1]
			}
		}
		in.Assign(k, lists, w, nil, true)
		ex := Exhaustive(in)
		seedRes := Greedy(in)
		static := BranchAndBound(in, seedRes, NewBudget(0), 1, BoundStatic)
		for _, workers := range []int{1, 3} {
			res := BranchAndBound(in, seedRes, NewBudget(0), workers, BoundResidual)
			if res.Failed != ex.Failed || !res.Exact || !reflect.DeepEqual(res.Sel, static.Sel) {
				t.Fatalf("%d workers: (%d, %v, exact=%v), static (%d, %v), exhaustive %d (m=%d b=%d s=%d k=%d kind=%d)",
					workers, res.Failed, res.Sel, res.Exact, static.Failed, static.Sel, ex.Failed, m, b, s, k, kind)
			}
			if workers == 1 && res.Visited > static.Visited {
				t.Fatalf("residual visited %d > static %d", res.Visited, static.Visited)
			}
		}
	})
}

// TestGainsNeverRiseAtS1 pins the fact the zero overlap table rests on:
// at s = 1 an object counts towards a candidate's Marginal only while
// none of its replicas has failed, so a pick only takes objects away
// from every gain. Along random Add walks — C = 1 strips, C > 1 and
// weighted instances — no candidate's Marginal ever rises, and the
// table reinit builds is all zero.
func TestGainsNeverRiseAtS1(t *testing.T) {
	rng := rand.New(rand.NewSource(197))
	for trial := 0; trial < 90; trial++ {
		m := 3 + rng.Intn(9)
		b := 1 + rng.Intn(30)
		var in *HitInstance
		switch trial % 3 {
		case 0: // C = 1 strip
			in, _ = randomHitInstance(rng, m, min(3, m), b, 1, 2, 1)
		case 1: // generic C
			in, _ = randomHitInstance(rng, m, min(3, m), b, 1, 2, 3)
		case 2: // weighted
			w := make([]int64, b)
			for obj := range w {
				w[obj] = int64(rng.Intn(7))
			}
			in, _ = randWeightedInstance(rng, m, b, 2, 1, w)
		}
		if slices.ContainsFunc(in.ov, func(v int64) bool { return v != 0 }) {
			t.Fatalf("trial %d: overlap table %v at s = 1, want all zero", trial, in.ov)
		}
		prev, g := make([]int64, m), make([]int64, m)
		in.Gains(prev)
		for _, c := range rng.Perm(m) {
			in.Add(c)
			in.Gains(g)
			for j := range g {
				if g[j] > prev[j] {
					t.Fatalf("trial %d: Marginal(%d) rose from %d to %d after Add(%d)", trial, j, prev[j], g[j], c)
				}
			}
			prev, g = g, prev
		}
	}
}
