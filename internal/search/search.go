// Package search is the generic worst-case subset-search core behind
// every adversary engine. The problem it solves: from m candidates,
// choose exactly K whose combined failure maximizes the number of failed
// objects, where incremental damage accounting is delegated to a
// HitInstance (node-level, whole-domain, and domain-constrained
// adversaries all reduce to this shape — the hierarchical
// correlated-failure view of Mills, Chandrasekaran & Mittal,
// arXiv:1701.01539, collapses them onto one search). The drivers take
// the concrete *HitInstance: every engine searches one.
//
// Three drivers:
//
//   - Exhaustive: enumerate every K-subset. Reference oracle.
//   - Greedy: marginal-gain selection plus single-swap local search. A
//     valid attack, hence a lower bound on the damage.
//   - BranchAndBound: depth-first search in candidate order, seeded
//     with an incumbent and pruned by admissible damage bounds selected
//     by a Bound mode (see below). One work-stealing driver (steal.go)
//     runs it at every worker count; one worker runs inline on the
//     caller's goroutine.
//
// # Pruning bounds
//
// The static replica-counting bound prunes a partial selection when even
// the top-loaded completion cannot beat the incumbent:
//
//	failed(K) <= ⌊(Σ_{c∈K} Load(c)) / S⌋
//
// Every state entered runs it, in both modes. BoundStatic (the ablation
// switch) prunes with it alone. BoundResidual, the default, adds the
// gain-vector bounds below, which read each node's own marginal gains:
// they only ever cut subtrees no leaf of which reaches the incumbent
// snapshot, so on the same instance the residual mode visits a subset
// of the states the static mode visits and returns the identical
// result.
//
// The final-level scan (the last pick, one Marginal call per remaining
// candidate) is cut in both modes: it stops at the first candidate
// whose load is at most the best gain found so far, or too small for
// failed + load to reach the incumbent. Both cuts are exact, because a
// candidate's gain never exceeds its load (0 <= Marginal(i) <= Load(i))
// and loads are non-increasing, so every candidate from the stopping
// point on is bounded by the load there: the scan returns the same
// maximizer, ties included, and only makes fewer Marginal calls.
//
// Under BoundResidual the scan below a node P with two picks left is
// also filtered by the parent's gains. Adding candidate i changes only
// the objects of run i, and each raises Marginal(j) by at most its
// weight, and only if run j holds it too, so
//
//	Marginal_{P+i}(j) <= Marginal_P(j) + ov(i, j) <= gP[j] + maxOv(i)
//
// with gP the gains at P and maxOv(i) the largest overlap of run i
// with a later run (MaxOverlap, a table built once per Assign
// instance). A candidate whose bound is at most the scan's threshold
// can neither beat the best gain nor reach the incumbent, so the scan
// skips its Marginal call, and stops once the suffix maximum of gP puts
// every later candidate under the threshold too; by the argument of
// the load cut, the result and every visited state are unchanged.
//
// The same bound, applied once per later pick, caps child P+i as a
// whole at any node P with q+1 >= 2 picks left. The child has
// failed + g[i] objects down (g is P's gain vector, and g[i] is what
// Add(i) returns); each of its completions i < j_1 < ... < j_q adds
// Marginal_{P+i+j_1..j_{x-1}}(j_x) <= g[j_x] + ov(i, j_x) +
// Σ_{y<x} ov(j_y, j_x) at pick x, and ov(a, b) <= maxOv(a) for a < b,
// so nothing below the child reports more than
//
//	failed + g[i] + q·maxOv(i) + B_q(i+1)
//	B_t(j) = max(B_t(j+1), g[j] + (t−1)·maxOv(j) + B_{t−1}(j+1)),  B_0 = 0
//
// where B_t(j) is the best sum over t picks from j on, each weighted
// with its own gain and maxOv times the number of picks after it. At
// q = 1 it reads failed + g[i] + max_{j>i}(g[j]) + maxOv(i). When the
// bound is below the incumbent snapshot the child is skipped before
// Add, and charged first, as an entered state, so budget exhaustion and
// the lex tie rule are those of the unskipped search; a bound equal to
// the snapshot is not skipped, since a leaf below may tie. With two
// picks left the skipped children are exactly those whose scan would
// stop at its first candidate; with more, the child's subtree is never
// entered.
//
// The node itself is bounded the same way, once, on entry: nothing
// below P reports more than failed + B_{q+1}(start), the largest child
// bound over the candidates start.. its loop has left, so when that is
// below the snapshot the node returns before charging any child. It
// evaluates the node with its own gains, charged as the one state its
// entry already was, where the parent's child skip read the parent's
// gains plus the overlaps; the test is strict, so the tie rule and
// every witness stand.
//
// At S = 1 the overlap table is all zero: an object counts towards a
// gain only while none of its replicas has failed, so a pick only takes
// objects away from the later gains, and Marginal_{P+i}(j) <=
// Marginal_P(j) at any C and any weights. Elsewhere the overlap terms
// are not bounded by the admissible weights, so the bounds saturate
// rather than wrap. The gains themselves are delta-maintained: one
// vector per depth,
// patched on each descent through the inverted index for the holders of
// the chosen run's objects (see runTask and HitInstance.patchGains),
// with one full Gains pass per task whose node has no current vector.
//
// Budget semantics (shared by every driver and engine built on them):
// each branch-and-bound search state entered — every partial selection
// considered, including the root — consumes one unit from the Budget.
// When the Budget runs dry the search stops, keeps its incumbent, and
// reports Exact = false. Greedy seeding never consumes budget.
package search

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Bound selects the branch-and-bound pruning discipline.
type Bound int

const (
	// BoundResidual prunes with the static replica-counting bound and
	// the gain-vector bounds: the parent-gain scan filter, the child
	// skip and the node-entry prune (see "Pruning bounds"). The default:
	// never weaker than BoundStatic, identical results. The name is the
	// -bound flag's, which goldens pin.
	BoundResidual Bound = iota
	// BoundStatic prunes with the static replica-counting bound only —
	// the ablation baseline.
	BoundStatic
)

// String names the bound for diagnostics and CLI output.
func (b Bound) String() string {
	switch b {
	case BoundResidual:
		return "residual"
	case BoundStatic:
		return "static"
	}
	return fmt.Sprintf("Bound(%d)", int(b))
}

// ParseBound parses a -bound flag value.
func ParseBound(s string) (Bound, error) {
	switch s {
	case "residual":
		return BoundResidual, nil
	case "static":
		return BoundStatic, nil
	}
	return 0, fmt.Errorf("search: unknown bound %q (want residual or static)", s)
}

// Result is a search outcome in candidate-index space. Callers translate
// Sel back to node or domain identities.
type Result struct {
	Failed  int   // objects failed by the best attack found
	Sel     []int // chosen candidate indices, ascending
	Exact   bool  // true if Failed is provably the maximum
	Visited int64 // search states visited (diagnostics/ablation)
}

// Budget caps the number of branch-and-bound states one logical search
// may visit, shared across sub-searches (constrained per-subset runs)
// and the workers of one search. A limit <= 0 means
// unlimited; states are still counted for diagnostics. The zero Budget
// is unlimited and ready to use.
type Budget struct {
	limit int64
	used  atomic.Int64
}

// NewBudget returns a budget allowing limit states (<= 0: unlimited).
func NewBudget(limit int64) *Budget { return &Budget{limit: limit} }

// Used returns the number of states consumed so far. While a search is
// in flight the count includes leased-but-unentered states
// (see Lease); once every worker has exited, leases are settled and
// Used is exactly the number of states entered.
func (b *Budget) Used() int64 { return b.used.Load() }

// Limit returns the configured state limit (<= 0: unlimited).
func (b *Budget) Limit() int64 { return b.limit }

// Remaining returns how many states the budget still allows. Unlimited
// budgets report math.MaxInt64.
func (b *Budget) Remaining() int64 {
	if b.limit <= 0 {
		return math.MaxInt64
	}
	if rem := b.limit - b.used.Load(); rem > 0 {
		return rem
	}
	return 0
}

// Exhausted reports whether the limit has been reached.
func (b *Budget) Exhausted() bool {
	return b.limit > 0 && b.used.Load() >= b.limit
}

// Lease atomically claims up to n states for a worker to consume
// without further synchronization, returning the number granted (0 once
// the limit is reached — never a partial zero while states remain). The
// worker must give back whatever it did not enter via Return before it
// exits, so that Used settles to exactly the states entered and a
// leased-but-unused remainder is never leaked. Unlimited budgets grant
// every request in full.
func (b *Budget) Lease(n int64) int64 {
	if n <= 0 {
		return 0
	}
	if b.limit <= 0 {
		b.used.Add(n)
		return n
	}
	for {
		u := b.used.Load()
		if u >= b.limit {
			return 0
		}
		g := b.limit - u
		if g > n {
			g = n
		}
		if b.used.CompareAndSwap(u, u+g) {
			return g
		}
	}
}

// Return gives back the unused remainder of a Lease.
func (b *Budget) Return(n int64) {
	if n > 0 {
		b.used.Add(-n)
	}
}

// Exhaustive enumerates every K-subset of candidates. Cost is C(m, K)
// times the incremental update cost; use only when that product is
// small. The instance's failure counters must be clean and are left
// clean. (No pruning and no duplicate collapse: this is the reference
// oracle the pruned drivers are differentially tested against.)
func Exhaustive(in *HitInstance) Result {
	m, k := in.Len(), in.K()
	best := Result{Failed: -1, Exact: true}
	cur := make([]int, 0, k)
	var visited int64
	var dfs func(start, failed int)
	dfs = func(start, failed int) {
		visited++
		if len(cur) == k {
			if failed > best.Failed {
				best.Failed = failed
				best.Sel = append(best.Sel[:0], cur...)
			}
			return
		}
		rem := k - len(cur)
		for i := start; i <= m-rem; i++ {
			newly := in.Add(i)
			cur = append(cur, i)
			dfs(i+1, failed+newly)
			cur = cur[:len(cur)-1]
			in.Remove(i)
		}
	}
	dfs(0, 0)
	best.Visited = visited
	if best.Failed < 0 {
		best.Failed = 0
	}
	return best
}

// Greedy picks K candidates by maximum marginal damage, then improves
// the set with single-swap local search. The result is a valid attack
// (a lower bound on the worst case) but not guaranteed optimal. The
// instance's failure counters must be clean on entry and are left
// clean: Greedy removes its picks before it returns. Visited reports
// the number of marginal-damage evaluations (the unit of greedy work,
// one per candidate weighed), so ablation tables compare real effort.
//
// The marginals come from one gain vector: a copy of the root vector
// at the start, then patchGains after every Add and Remove, through
// the inverted index. A swap that keeps its candidate restores the
// vector saved before the Remove instead of patching the Add back.
// Picks, the first-of-equals tie rule and Visited are those of a
// Marginal call per candidate weighed.
func Greedy(in *HitInstance) Result {
	m, k := in.Len(), in.K()
	in.sc.greedy = slices.Grow(in.sc.greedy[:0], 2*m)[:2*m]
	g, saved := in.sc.greedy[:m], in.sc.greedy[m:]
	copy(g, in.root)
	chosen := make([]bool, m)
	sel := make([]int, 0, k)
	failed := 0
	var evals int64
	for len(sel) < k {
		bestI, bestGain := -1, int64(-1)
		for i := 0; i < m; i++ {
			if chosen[i] {
				continue
			}
			evals++
			if g[i] > bestGain {
				bestGain = g[i]
				bestI = i
			}
		}
		failed += in.Add(bestI)
		in.patchGains(bestI, g, false)
		chosen[bestI] = true
		sel = append(sel, bestI)
		assertGainsFresh(in, sel, g)
	}
	// Swap local search: replace one chosen candidate with one unchosen
	// candidate when it strictly increases damage.
	improved := true
	rounds := 0
	for improved && rounds < 4*k {
		improved = false
		rounds++
		for si, ci := range sel {
			copy(saved, g)
			in.Remove(ci)
			in.patchGains(ci, g, true)
			assertGainsFresh(in, sel, g)
			evals++
			lost := g[ci] // damage this candidate was contributing
			bestI, bestGain := ci, lost
			for i := 0; i < m; i++ {
				if chosen[i] { // includes ci itself
					continue
				}
				evals++
				if g[i] > bestGain {
					bestGain = g[i]
					bestI = i
				}
			}
			in.Add(bestI)
			if bestI == ci {
				copy(g, saved)
			} else {
				in.patchGains(bestI, g, false)
				chosen[ci] = false
				chosen[bestI] = true
				sel[si] = bestI
				failed += int(bestGain - lost)
				improved = true
			}
			assertGainsFresh(in, sel, g)
		}
	}
	for _, i := range sel {
		in.Remove(i)
	}
	sorted := append([]int(nil), sel...)
	sort.Ints(sorted)
	return Result{
		Failed:  failed,
		Sel:     sorted,
		Exact:   false,
		Visited: evals,
	}
}

// prunable is the static replica-counting bound, the one prune both
// bound modes run on every state entered: it reports whether no
// completion of the current state — the chosen candidates carrying
// loadSum static load, the top-rem static window of the candidates
// left — can beat the incumbent. Any completion adds at most the
// window, and s failed replicas are needed per failed object.
func prunable(loadSum, window, s, incumbent int64) bool {
	return (loadSum+window)/s <= incumbent
}

// dupFlags precomputes the duplicate-candidate flags (dup[i]: candidate
// i's hits equal candidate i-1's) so the DFS inner loop compares no
// runs; nil when the instance has no duplicates to collapse.
func dupFlags(in *HitInstance) []bool {
	m := in.Len()
	var flags []bool
	for i := 1; i < m; i++ {
		if in.DupOfPrev(i) {
			if flags == nil {
				flags = make([]bool, m)
			}
			flags[i] = true
		}
	}
	return flags
}

// loadPrefix returns prefix sums of the instance's candidate loads
// (prefix[i] = sum of Load(0..i-1)), panicking if the loads are not
// non-increasing: the replica-counting bound is unsound on unsorted
// candidates, and a panic beats a silently wrong "exact" optimum.
func loadPrefix(in *HitInstance) []int64 {
	m := in.Len()
	prefix := make([]int64, m+1)
	for i := 0; i < m; i++ {
		if i > 0 && in.Load(i) > in.Load(i-1) {
			panic("search: branch-and-bound requires candidates in non-increasing Load order")
		}
		prefix[i+1] = prefix[i] + in.Load(i)
	}
	return prefix
}
