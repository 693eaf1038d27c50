// Package search is the generic worst-case subset-search core behind
// every adversary engine. The problem it solves: from m candidates,
// choose exactly K whose combined failure maximizes the number of failed
// objects, where incremental damage accounting is delegated to an
// Instance (node-level, whole-domain, and domain-constrained adversaries
// all reduce to this shape — the hierarchical correlated-failure view of
// Mills, Chandrasekaran & Mittal, arXiv:1701.01539, collapses them onto
// one search).
//
// Three drivers share one pruning discipline and one budget/visited-state
// semantics:
//
//   - Exhaustive: enumerate every K-subset. Reference oracle.
//   - Greedy: marginal-gain selection plus single-swap local search. A
//     valid attack, hence a lower bound on the damage.
//   - BranchAndBoundWith (and its parallel twin,
//     BranchAndBoundParallelWith): depth-first search in candidate order,
//     seeded with an incumbent and pruned by one or two admissible damage
//     bounds selected by a Bound mode (see below).
//
// # Pruning bounds
//
// The static replica-counting bound prunes a partial selection when even
// the top-loaded completion cannot beat the incumbent:
//
//	failed(K) <= ⌊(Σ_{c∈K} Load(c)) / S⌋
//
// The residual-load bound (BoundResidual, the default) additionally
// discounts damage already done on the current path: replicas belonging
// to objects that have crossed the S threshold are dead weight, so any
// completion can newly fail at most
//
//	⌊(liveSpent + min(window, residual)) / S⌋
//
// objects, where liveSpent counts failed replicas of still-live objects,
// window is the static top-rem load sum the static bound uses, and
// residual counts the unchosen candidates' replicas on still-live
// objects (see ResidualBounder). Because the chosen load decomposes as
// liveSpent + deadSpent with deadSpent >= S·failed, this bound is never
// weaker than the static one, so it is the only prune residual mode
// runs; BoundStatic (the ablation switch) restricts pruning to the
// static bound. Residual pruning is a strict refinement: on the same
// instance it visits a subset of the states the static bound visits and
// returns the identical result.
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
	"sort"
	"sync/atomic"
)

// Instance is the incremental damage-accounting state for one search: m
// candidates (indexed 0..Len()-1), of which exactly K must be chosen.
// Implementations must guarantee Len() >= K(), and the branch-and-bound
// drivers additionally require candidates in non-increasing Load order —
// the replica-counting bound assumes the first rem remaining candidates
// carry the most load, so an unsorted instance would prune incorrectly
// (the drivers verify and panic rather than return a wrong optimum).
type Instance interface {
	// Len returns the number of candidates m.
	Len() int
	// K returns the attack-set size.
	K() int
	// S returns how many failed replicas fail an object (the divisor of
	// the replica-counting bound).
	S() int
	// Load returns candidate i's static replica load: failing i can
	// fail at most Load(i) replicas.
	Load(i int) int64
	// Add fails candidate i and returns the number of newly failed
	// objects.
	Add(i int) int
	// Remove reverts Add(i).
	Remove(i int)
	// Marginal returns how many additional objects would fail if
	// candidate i were added, without mutating state.
	Marginal(i int) int
	// Reset zeroes all failure counters (after Greedy left them dirty).
	Reset()
}

// ResidualBounder is an optional Instance extension enabling the
// residual-load bound. Implementations maintain, alongside the failure
// counters, the per-candidate residual load resid(c) = Σ_{(obj,C) ∈
// hits(c), obj live} C — candidate c's replicas restricted to live
// objects — and the aggregate invariant quantities
//
//	deadSpent = Σ_{obj dead} cnt(obj)   (failed replicas of dead objects)
//	residual  = Σ_{c} resid(c)          (all candidates — overcounting the
//	                                     chosen ones is sound and keeps
//	                                     Add/Remove free of chosen-set
//	                                     bookkeeping)
//	discount  = Σ_{c} (fullLoad(c) - resid(c))   (dead load, all candidates)
//
// where an object is dead once S of its replicas have failed. The
// drivers derive liveSpent — failed replicas of still-live objects —
// as the chosen candidates' static load minus deadSpent (tracking the
// dead side keeps the common live-hit path branch-cheap). Any
// completion of the current selection then newly fails at most
// ⌊(liveSpent + cap) / S⌋ objects, where cap is any upper bound on the
// completion's hits to live objects: the drivers use
// min(static window, residual) as the O(1) cap and TopResidual as the
// exact one, gated by discount (the scan cannot recover more than the
// dead load, so it only runs when that could flip the decision).
// HitInstance implements this; instances that don't are searched with
// the static bound only.
// Because the upkeep (threshold-crossing walks over an inverted index)
// costs real work in Add/Remove, it is off until a driver calls
// EnableResidual — Greedy seeding, Exhaustive enumeration, and
// static-bound ablation runs all mutate at full speed.
type ResidualBounder interface {
	Instance
	// EnableResidual turns on the incremental residual upkeep. Must be
	// called on a clean (Reset) instance, whose baselines are correct by
	// construction; it stays on until the next Reinit.
	EnableResidual()
	// ResidualStats returns the current (deadSpent, residual, discount)
	// invariants. Valid only while the upkeep is enabled.
	ResidualStats() (deadSpent, residual, discount int64)
	// TopResidual returns the sum of the rem largest residual loads
	// among candidates start..Len()-1 — the exact residual analogue of
	// the static top-rem window (never larger, since resid <= Load
	// pointwise and candidates are load-sorted). The drivers only call
	// it with 0 < rem <= Len()-start.
	TopResidual(start, rem int) int64
}

// Deduper is an optional Instance extension enabling duplicate-candidate
// collapse: when DupOfPrev(i) reports that candidate i's hit list is
// identical to candidate i-1's, the branch-and-bound drivers skip the
// branch that chooses i after skipping i-1 at the same level — the
// damage of any such selection is already realized by the selection
// using i-1 instead. Common in symmetric placements (x = 0 partition
// chunks co-hosted on r nodes), singleton-domain topologies, and the
// zero-load candidates instances pad with.
type Deduper interface {
	Instance
	// DupOfPrev reports whether candidate i (i >= 1) has a hit list
	// identical to candidate i-1's.
	DupOfPrev(i int) bool
}

// Bound selects the branch-and-bound pruning discipline.
type Bound int

const (
	// BoundResidual prunes with both the static replica-counting bound
	// and the residual-load bound (when the instance supports it). The
	// default: never weaker than BoundStatic, identical results.
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
// and worker goroutines (parallel drivers). A limit <= 0 means
// unlimited; states are still counted for diagnostics. The zero Budget
// is unlimited and ready to use.
type Budget struct {
	limit int64
	used  atomic.Int64
}

// NewBudget returns a budget allowing limit states (<= 0: unlimited).
func NewBudget(limit int64) *Budget { return &Budget{limit: limit} }

// Visit consumes one state. It reports false — without consuming — once
// the limit is reached; the caller must then stop searching and clear
// Exact. Concurrent use is safe; workers racing past the limit may
// overshoot by at most one state each.
func (b *Budget) Visit() bool {
	if b.limit > 0 && b.used.Load() >= b.limit {
		return false
	}
	b.used.Add(1)
	return true
}

// Used returns the number of states consumed so far. While a parallel
// search is in flight the count includes leased-but-unentered states
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
func Exhaustive(in Instance) Result {
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
// instance's failure counters are left dirty; Reset before reuse.
// Visited reports the number of marginal-damage evaluations actually
// performed (the unit of greedy work), so ablation tables compare real
// effort.
func Greedy(in Instance) Result {
	m, k := in.Len(), in.K()
	chosen := make([]bool, m)
	sel := make([]int, 0, k)
	failed := 0
	var evals int64
	for len(sel) < k {
		bestI, bestGain := -1, -1
		for i := 0; i < m; i++ {
			if chosen[i] {
				continue
			}
			evals++
			if g := in.Marginal(i); g > bestGain {
				bestGain = g
				bestI = i
			}
		}
		failed += in.Add(bestI)
		chosen[bestI] = true
		sel = append(sel, bestI)
	}
	// Swap local search: replace one chosen candidate with one unchosen
	// candidate when it strictly increases damage.
	improved := true
	rounds := 0
	for improved && rounds < 4*k {
		improved = false
		rounds++
		for si, ci := range sel {
			in.Remove(ci)
			evals++
			lost := in.Marginal(ci) // damage this candidate was contributing
			bestI, bestGain := ci, lost
			for i := 0; i < m; i++ {
				if chosen[i] { // includes ci itself
					continue
				}
				evals++
				if g := in.Marginal(i); g > bestGain {
					bestGain = g
					bestI = i
				}
			}
			in.Add(bestI)
			if bestI != ci {
				chosen[ci] = false
				chosen[bestI] = true
				sel[si] = bestI
				failed += bestGain - lost
				improved = true
			}
		}
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

// BranchAndBoundWith runs the depth-first search seeded with an
// incumbent (conventionally Greedy's result on the same instance, after
// Reset), pruning with the given bound (BoundResidual, the default, or
// the BoundStatic ablation baseline behind the -bound switch). The
// instance's failure counters must be clean. Every state entered consumes one unit of bud; when bud runs
// dry the incumbent so far is returned with Exact = false. Visited
// reports bud's total consumption, so searches sharing a Budget report
// the shared count.
func BranchAndBoundWith(in Instance, seed Result, bud *Budget, bound Bound) Result {
	m, k, s := in.Len(), in.K(), in.S()
	prefix := loadPrefix(in)
	rb := residualOf(in, bound)
	dup := dupFlags(in)
	best := Result{Failed: seed.Failed, Sel: append([]int(nil), seed.Sel...), Exact: true}
	cur := make([]int, 0, k)
	exhausted := false

	var dfs func(start, failed int, loadSum int64)
	dfs = func(start, failed int, loadSum int64) {
		if exhausted {
			return
		}
		if !bud.Visit() {
			exhausted = true
			return
		}
		rem := k - len(cur)
		if rem == 0 {
			if failed > best.Failed {
				best.Failed = failed
				best.Sel = append(best.Sel[:0], cur...)
			}
			return
		}
		if start+rem > m {
			return
		}
		window := prefix[start+rem] - prefix[start]
		if prunable(rb, failed, loadSum, window, int64(s), int64(best.Failed), start, rem) {
			return
		}
		if rem == 1 {
			// Final level: scan candidates for the best single extension.
			// Duplicates collapse here too: candidate i's marginal equals
			// its identical predecessor's, and the strict argmax keeps the
			// first of any equal pair, so skipping dup[i] (whose
			// representative i-1 >= start is scanned) changes nothing but
			// the scan work.
			bestI, bestGain := -1, -1
			for i := start; i < m; i++ {
				if dup != nil && i > start && dup[i] {
					continue
				}
				if g := in.Marginal(i); g > bestGain {
					bestGain = g
					bestI = i
				}
			}
			if bestI >= 0 && failed+bestGain > best.Failed {
				best.Failed = failed + bestGain
				best.Sel = append(append(best.Sel[:0], cur...), bestI)
			}
			return
		}
		for i := start; i <= m-rem; i++ {
			// Duplicate collapse: choosing i after skipping the
			// identical i-1 at this level re-derives a selection whose
			// damage the i-1 branch already realized.
			if dup != nil && i > start && dup[i] {
				continue
			}
			newly := in.Add(i)
			cur = append(cur, i)
			dfs(i+1, failed+newly, loadSum+in.Load(i))
			cur = cur[:len(cur)-1]
			in.Remove(i)
			if exhausted {
				return
			}
		}
	}
	dfs(0, 0, 0)
	best.Visited = bud.Used()
	if exhausted {
		best.Exact = false
	}
	return best
}

// prunable is the one copy of the bound algebra shared by the serial
// and parallel drivers: it reports whether no completion of the current
// state — failed objects down, the chosen candidates carrying loadSum
// static load, rem picks left among candidates start..Len()-1 with
// top-rem static window — can beat the incumbent.
//
// With rb == nil it is the static replica-counting bound: any
// completion adds at most the top rem remaining loads, and s failed
// replicas are needed per failed object. With rb, the residual-load
// bound: completions can only newly fail objects that are still live,
// with future hits capped by the static window, the candidates'
// live-object residual, and (when the dead-load discount could flip
// the decision) the exact top-rem residual scan. The residual form
// dominates the static one (loadSum = liveSpent + deadSpent >=
// liveSpent + s·failed), so it is the only prune residual mode needs.
func prunable(rb ResidualBounder, failed int, loadSum, window, s, incumbent int64, start, rem int) bool {
	if rb == nil {
		return (loadSum+window)/s <= incumbent
	}
	deadSpent, residual, discount := rb.ResidualStats()
	liveSpent := loadSum - deadSpent
	cheap := window
	if residual < cheap {
		cheap = residual
	}
	f := int64(failed)
	if f+(liveSpent+cheap)/s <= incumbent {
		return true
	}
	if discount > 0 && f+(liveSpent+window-discount)/s <= incumbent &&
		f+(liveSpent+rb.TopResidual(start, rem))/s <= incumbent {
		return true
	}
	return false
}

// residualOf returns the instance's residual-bound view when the mode
// asks for it and the instance maintains one — switching its upkeep on
// (the instance is clean at driver entry) — else nil (static-only
// pruning).
func residualOf(in Instance, bound Bound) ResidualBounder {
	if bound != BoundResidual {
		return nil
	}
	rb, ok := in.(ResidualBounder)
	if !ok {
		return nil
	}
	rb.EnableResidual()
	return rb
}

// dupFlags precomputes the duplicate-candidate flags (dup[i]: candidate
// i's hits equal candidate i-1's) so the DFS inner loop avoids the
// interface call; nil when the instance has no duplicates to collapse.
func dupFlags(in Instance) []bool {
	d, ok := in.(Deduper)
	if !ok {
		return nil
	}
	m := in.Len()
	var flags []bool
	for i := 1; i < m; i++ {
		if d.DupOfPrev(i) {
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
func loadPrefix(in Instance) []int64 {
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
