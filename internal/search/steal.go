// Work-stealing branch-and-bound: the one depth-first driver behind
// BranchAndBound, at every worker count.
//
// Pending work is an explicit, splittable frontier of tasks — a
// selection prefix plus an untried sibling range — rather than a
// goroutine's call stack. Each worker owns a bounded LIFO deque (at
// most K entries: one continuation per ancestor of its current path)
// and explores depth-first; whenever it descends into a child it
// publishes the node's untried siblings as a task. The deque is
// depth-ordered, so the owner pops the deepest continuation (cheap
// replay: Removes only) while idle workers steal from the head — the
// *shallowest* range, i.e. the largest subtree — keeping steals rare
// and the Add/Remove prefix replay amortized. A lone worker runs
// inline on the caller's goroutine: its deque is the whole frontier,
// nobody steals, and it walks selections in ascending lex order.
//
// Two shared-atomic hot spots stay off the per-state path:
//
//   - Budget: workers consume states from leased chunks (leaseChunk at
//     a time, scaled down near the limit so one worker cannot starve
//     the rest), returning the unused remainder at exit. Used() still
//     settles to exactly the states entered; the limit is never
//     overshot. A lone worker on a limited budget charges one state at
//     a time, since concurrent searches may share that budget.
//   - Incumbent: pruning reads a worker-local snapshot refreshed on
//     lease boundaries (and by the worker's own improvements). The
//     snapshot only lags the true incumbent, so stale reads cost extra
//     exploration, never correctness.
//
// Exact runs return byte-identical (Failed, Sel) at any worker count:
// the seed when it ties the optimum, otherwise the lexicographically
// smallest optimal selection. The reduction is order-independent: ties
// are reported, the reducer keeps the seed against any tie and
// otherwise the lex-smallest tied selection, and a subtree whose bound
// exactly ties the snapshot is only pruned once no leaf in it could
// lex-precede the incumbent. At one worker the snapshot always equals
// the incumbent and every later leaf is lex-greater than it, so both
// tie rules reduce to strict improvement and the visited-state
// sequence is a fixed function of the instance and seed — budgeted
// runs stop at the same state every time. With more workers the
// visited-state *sets* may differ (speculative exploration under a
// stale snapshot); when the greedy seed is already optimal — every
// tracked benchmark — the incumbent never moves and the visited set,
// and hence the count, is identical at any worker count.
//
// A drained budget stops every worker at its next state; the pending
// frontier is dropped and the result reports Exact = false. On exit
// each worker returns its unused lease and unwinds its instance, so the
// caller's probe comes back clean.
package search

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// task is one unit of pending branch-and-bound work: the search node
// reached by choosing prefix (with failed objects down and loadSum
// chosen static load) still owes the sibling branches choosing
// candidates start.. next. Apart from the root, tasks are only created
// for nodes with at least two picks remaining; leaves and final-level
// scans complete inline.
type task struct {
	prefix  []int
	start   int
	failed  int
	loadSum int64
}

// leaseChunk is how many budget states a worker claims per Lease. Large
// enough to keep the shared atomic off the per-state hot path, small
// enough that incumbent snapshots stay fresh and budgeted runs spread
// states across workers (near the limit, requests shrink to an even
// per-worker share).
const leaseChunk = 256

// deque is one worker's bounded work queue. The owner pushes and pops
// at the tail (LIFO, deepest continuation first); thieves steal from
// the head, which — because entries are continuations of the owner's
// current root-to-node path — is always the shallowest pending range.
type deque struct {
	mu    sync.Mutex
	tasks []task
}

func (d *deque) push(t task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *deque) pop() (task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks)
	if n == 0 {
		return task{}, false
	}
	t := d.tasks[n-1]
	d.tasks = d.tasks[:n-1]
	return t, true
}

func (d *deque) steal() (task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return task{}, false
	}
	t := d.tasks[0]
	d.tasks = append(d.tasks[:0], d.tasks[1:]...)
	return t, true
}

func (d *deque) empty() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.tasks) == 0
}

// searchRun is one branch-and-bound run: the read-only candidate
// tables every worker shares, the workers, the shared budget, and the
// reducer holding the incumbent.
type searchRun struct {
	bud     *Budget
	bound   Bound
	workers int
	k, m    int
	s       int64
	prefix  []int64 // candidate load prefix sums (loadPrefix), shared read-only
	dup     []bool  // duplicate-candidate flags (dupFlags), shared read-only

	peers     []*stealWorker // every worker; peers[0] runs on the caller's goroutine
	wg        sync.WaitGroup // the goroutines running peers[1:]
	idle      atomic.Int32
	marginals int64 // the final-level scans' Marginal calls, summed once every worker exited
	adds      int64 // the workers' Add calls (children entered, prefix replays), summed likewise
	patches   int64 // the workers' patchGains calls, summed likewise
	refills   int64 // the workers' gain-vector refills (Gains passes, root copies), summed likewise

	exhausted atomic.Bool // budget drained: stop, result inexact
	done      atomic.Bool // frontier drained: the first worker to prove it releases the rest

	mu         sync.Mutex
	best       Result
	bestIsSeed bool                  // best.Sel is still the caller's seed (ties never displace it)
	bestScore  atomic.Int64          // mirror of best.Failed for lock-free snapshots
	bestSel    atomic.Pointer[[]int] // nil while bestIsSeed; else a frozen copy of best.Sel
}

// BranchAndBound runs the depth-first search seeded with an incumbent
// (conventionally search.WarmSeed's, on the same instance),
// pruning with the given bound (BoundResidual, the default, or the
// BoundStatic ablation baseline behind the -bound switch), over workers
// work-stealing workers (see the top of this file).
//
// in is an instance the caller already built, its counters clean as
// every driver leaves them — worker 0 searches it on the caller's
// goroutine, so seeding greedy on it first costs no extra
// construction; it is returned clean (the applied prefix fully
// unwound), so callers may reuse it across searches. workers is a
// resolved count, at least 1; each extra worker searches its own
// in.Clone().
//
// Every state entered, the root included, consumes one unit of bud,
// shared by all workers; when bud runs dry the incumbent so far is
// returned with Exact = false. Visited reports bud's total
// consumption, so searches sharing a Budget report the shared count.
// Exact runs return the seed when it ties the optimum, else the
// lexicographically smallest optimal selection, at any worker count.
// With a budget and more than one worker, the set of states visited
// differs between runs, so budgeted results may vary (each is still a
// valid attack and lower bound on the damage).
func BranchAndBound(in *HitInstance, seed Result, bud *Budget, workers int, bound Bound) Result {
	return newSearchRun(in, seed, bud, workers, bound).run()
}

// newSearchRun builds a run and its workers: worker 0 on in, the others
// on its clones, which share its inverted index, overlap table and root
// gain vector.
func newSearchRun(in *HitInstance, seed Result, bud *Budget, workers int, bound Bound) *searchRun {
	if workers < 1 {
		panic(fmt.Sprintf("search: BranchAndBound needs at least one worker, got %d", workers))
	}
	ps := &searchRun{
		bud:        bud,
		bound:      bound,
		workers:    workers,
		k:          in.K(),
		m:          in.Len(),
		s:          int64(in.S()),
		prefix:     loadPrefix(in),
		dup:        dupFlags(in),
		peers:      make([]*stealWorker, workers),
		best:       Result{Failed: seed.Failed, Sel: append([]int(nil), seed.Sel...), Exact: true},
		bestIsSeed: true,
	}
	ps.bestScore.Store(int64(seed.Failed))
	ps.peers[0] = newStealWorker(ps, 0, in)
	for id := 1; id < workers; id++ {
		ps.peers[id] = newStealWorker(ps, id, in.Clone())
	}
	return ps
}

// run searches to completion (or a dry budget) and returns the result.
func (ps *searchRun) run() Result {
	w0 := ps.peers[0]
	w0.init()
	if t, ok := ps.enterRoot(w0); ok {
		w0.deq.push(t)
	}
	for _, w := range ps.peers[1:] {
		ps.wg.Add(1)
		go func() {
			defer ps.wg.Done()
			w.init()
			w.run()
		}()
	}
	w0.run()
	ps.wg.Wait()
	for _, w := range ps.peers {
		ps.marginals += w.marginals
		ps.adds += w.adds
		ps.patches += w.patches
		ps.refills += w.refills
	}
	ps.best.Visited = ps.bud.Used()
	ps.best.Exact = !ps.exhausted.Load()
	sort.Ints(ps.best.Sel)
	return ps.best
}

// enterRoot charges the root state and applies the root prune,
// returning the root task unless the root resolves the search itself.
// At K == 1 the root task goes straight to the final-level scan.
func (ps *searchRun) enterRoot(w0 *stealWorker) (task, bool) {
	if ps.bud.Lease(1) == 0 {
		ps.exhausted.Store(true)
		return task{}, false
	}
	k := ps.k
	if k == 0 {
		return task{}, false
	}
	if prunable(0, ps.prefix[k], ps.s, ps.bestScore.Load()) {
		return task{}, false
	}
	return task{}, true
}

func (ps *searchRun) allEmpty() bool {
	for _, w := range ps.peers {
		if !w.deq.empty() {
			return false
		}
	}
	return true
}

// report offers a completed selection to the shared reducer. The order
// workers find selections in is scheduling-dependent, so the reducer —
// not discovery order — fixes the result: strict improvements always
// win; a tie never displaces the seed and otherwise wins only by lex
// order. sel must be ascending (the DFS builds it that way).
func (ps *searchRun) report(failed int, sel []int) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	switch {
	case failed > ps.best.Failed:
	case failed == ps.best.Failed && !ps.bestIsSeed && lexLess(sel, ps.best.Sel):
	default:
		return
	}
	ps.best.Failed = failed
	ps.best.Sel = append(ps.best.Sel[:0], sel...)
	ps.bestIsSeed = false
	ps.bestScore.Store(int64(failed))
	frozen := append([]int(nil), sel...)
	ps.bestSel.Store(&frozen)
}

// lexLess orders equal-length ascending selections lexicographically.
func lexLess(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// stealWorker is one worker's view of the run: its instance and deque,
// the applied prefix mirroring the instance's counters, its budget
// lease and incumbent snapshot.
type stealWorker struct {
	ps     *searchRun
	id     int
	in     *HitInstance
	deq    deque
	cur    []int
	lease  int64
	snap   int64
	selBuf []int
	// gv[d] holds every candidate's Marginal at the depth-d node of cur,
	// for the nodes with two or more picks left (see runTask); nil under
	// BoundStatic or below K = 2. gvOK[d] reports that gv[d] describes
	// cur[:d]: runTask's refill and each descent set it, and adopt clears
	// it past the common prefix, the only depths whose node changes.
	gv   [][]int64
	gvOK []bool
	// rest[d][j] bounds what the children of the depth-d node of cur can
	// add with their picks from j on, and node[d][j] what the node itself
	// can add with its picks from j on (restBound), for every j from
	// restLo[d] on; math.MaxInt marks no rows. Writing gv[d] voids them,
	// and a resumed continuation, whose start only grows, reuses them.
	// col is restBound's column scratch.
	rest      [][]int64
	node      [][]int64
	restLo    []int
	col       []int64
	free      [][]int // recycled task.prefix buffers: one push per state entered, so allocation must not be
	marginals int64   // Marginal calls made by scanLast
	adds      int64   // Add calls made by runTask and adopt
	patches   int64   // patchGains calls made by runTask
	refills   int64   // gain vectors runTask refilled: a Gains pass, or at the root a copy of the root vector
}

// newStealWorker sizes the worker's deque up front: it runs before any
// goroutine starts, so no thief can observe the deque being set up.
func newStealWorker(ps *searchRun, id int, in *HitInstance) *stealWorker {
	return &stealWorker{ps: ps, id: id, in: in, deq: deque{tasks: make([]task, 0, ps.k)}}
}

// init lends the worker its gain vectors and bound rows under the
// residual bound, and takes its first incumbent snapshot. Extra workers
// run it on their own goroutine.
func (w *stealWorker) init() {
	k := w.ps.k
	if w.ps.bound == BoundResidual && k >= 2 {
		w.gv, w.rest, w.node, w.gvOK, w.restLo = w.in.gainScratch(k - 1)
		w.col = make([]int64, k+1)
	}
	paths := make([]int, 2*k)
	w.cur, w.selBuf = paths[:0:k], paths[k:k]
	w.snap = w.ps.bestScore.Load()
}

func (w *stealWorker) run() {
	defer w.exit()
	for {
		t, ok := w.next()
		if !ok {
			return
		}
		w.runTask(t)
	}
}

// exit unwinds the instance back to clean (callers reuse probes across
// searches) and settles the budget lease.
func (w *stealWorker) exit() {
	w.adopt(nil)
	if w.lease > 0 {
		w.ps.bud.Return(w.lease)
		w.lease = 0
	}
}

// next pops the worker's own deepest continuation, else steals the
// shallowest range from a victim, else spins until every worker is idle
// over empty deques — at which point no task exists anywhere and none
// can appear (only owners push, and every owner drained its deque
// before idling). The first worker to prove that sets done, releasing
// the others: exits decrement the idle gauge, so later spinners could
// never re-observe idle == workers themselves. A worker whose steal
// lands in the instant the condition is proven just finishes its
// subtree alone — it drains its own deque before ever consulting done.
func (w *stealWorker) next() (task, bool) {
	if w.ps.exhausted.Load() {
		return task{}, false
	}
	if t, ok := w.deq.pop(); ok {
		return t, true
	}
	ps := w.ps
	if ps.workers == 1 {
		return task{}, false // a lone worker's deque is the whole frontier
	}
	ps.idle.Add(1)
	defer ps.idle.Add(-1)
	for spins := 0; ; spins++ {
		if ps.exhausted.Load() || ps.done.Load() {
			return task{}, false
		}
		for off := 1; off < ps.workers; off++ {
			if t, ok := ps.peers[(w.id+off)%ps.workers].deq.steal(); ok {
				return t, true
			}
		}
		if ps.idle.Load() == int32(ps.workers) && ps.allEmpty() {
			ps.done.Store(true)
			return task{}, false
		}
		if spins%256 == 255 {
			time.Sleep(50 * time.Microsecond) // oversubscribed tails: stop burning the core
		}
		runtime.Gosched()
	}
}

// adopt replays the instance onto the given prefix: Remove back to the
// common ancestor, Add the rest. Popping an own continuation removes a
// suffix only; a stolen task pays the full replay — amortized, since
// steals take the shallowest (largest) pending subtrees. The gain
// vectors past the common ancestor stop describing cur, and the
// replayed depths get none (runTask refills the task's own depth).
func (w *stealWorker) adopt(prefix []int) {
	lcp := 0
	for lcp < len(w.cur) && lcp < len(prefix) && w.cur[lcp] == prefix[lcp] {
		lcp++
	}
	for j := len(w.cur) - 1; j >= lcp; j-- {
		w.in.Remove(w.cur[j])
		if w.gvOK != nil {
			w.gvOK[j+1] = false // the node cur[:j+1] is left
		}
	}
	w.cur = w.cur[:lcp]
	for _, c := range prefix[lcp:] {
		w.in.Add(c)
		w.adds++
		w.cur = append(w.cur, c)
	}
}

// prefixCopy snapshots w.cur into a recycled buffer — a push happens on
// every descent (one per interior state), so per-push allocation would
// dominate the hot path.
func (w *stealWorker) prefixCopy() []int {
	var buf []int
	if n := len(w.free); n > 0 {
		buf = w.free[n-1][:0]
		w.free = w.free[:n-1]
	} else {
		buf = make([]int, 0, w.ps.k)
	}
	return append(buf, w.cur...)
}

// recycle returns an adopted task's prefix buffer to the freelist. A
// stolen buffer migrates to the thief's freelist.
func (w *stealWorker) recycle(buf []int) {
	if cap(buf) > 0 && len(w.free) < 64 {
		w.free = append(w.free, buf)
	}
}

// runTask explores the task's sibling range depth-first — the one DFS
// loop: each child entered charges one leased budget unit, then runs
// the prune and final-level logic; a child with two or more picks
// remaining becomes the new node after the untried siblings are
// published for thieves.
//
// Under the residual bound every node with two or more picks left has
// its gain vector gv[depth]: a task whose node has none current (the
// root, a stolen task off the worker's path) fills it with one Gains
// pass — at the root, the clean state, it copies the instance's root
// vector instead — and each descent copies the node's vector and
// patches it for the chosen child (patchGains), so
// the CSR is swept once per such task instead of once per node. At a
// node with q+1 picks left, child i has failed + g[i] objects down, and
// nothing below it reports more than failed + g[i] + q·MaxOverlap(i) +
// rest[i+1] (restBound; see "Pruning bounds" in search.go). The node
// itself reports no more than failed + node[start], the largest of
// those child bounds from start on: when that is below the snapshot the
// task returns before charging a child, so the node costs the one
// state its entry charged. Otherwise a child whose bound is below the
// snapshot is skipped after charge and before Add: with two picks left
// (q = 1) these are exactly the children whose scan would stop at its
// first candidate, and higher up the child's whole subtree goes
// unvisited. Both tests are strict, so a bound equal to the snapshot
// takes the normal path, since a leaf below may tie.
func (w *stealWorker) runTask(t task) {
	w.adopt(t.prefix)
	w.recycle(t.prefix)
	failed, loadSum, start := t.failed, t.loadSum, t.start
	prefix, dup, m := w.ps.prefix, w.ps.dup, w.ps.m
	if d := len(w.cur); w.gv != nil && !w.gvOK[d] {
		if d == 0 {
			copy(w.gv[0], w.in.root) // the clean state
		} else {
			w.in.Gains(w.gv[d])
		}
		w.gvOK[d], w.restLo[d] = true, math.MaxInt
		w.refills++
	}
	for {
		rem := w.ps.k - len(w.cur)
		if rem == 1 { // only the K == 1 root: other tasks keep two picks
			w.scanLast(failed, start)
			return
		}
		q := rem - 1
		var g, rest []int64
		if d := len(w.cur); w.gv != nil {
			g, rest = w.gv[d], w.rest[d]
			assertGainsFresh(w.in, w.cur, g)
			if w.restLo[d] > start {
				w.restBound(g, rest, w.node[d], start, q)
				w.restLo[d] = start
			}
			if w.node[d][start] < w.snap-int64(failed) {
				assertNodePruneSound(w.in, w.cur, start, rem, failed, w.snap)
				return
			}
		}
		// The node's own loop start (its entry point in the DFS): the
		// dup collapse is relative to it, not to the task's start.
		ns := 0
		if len(w.cur) > 0 {
			ns = w.cur[len(w.cur)-1] + 1
		}
		descended := false
		for i := start; i <= m-rem; i++ {
			// Duplicate collapse: choosing i after skipping the
			// identical i-1 at this level re-derives a selection whose
			// damage the i-1 branch already realized.
			if dup != nil && i > ns && dup[i] {
				continue
			}
			if w.ps.exhausted.Load() || !w.charge() {
				return
			}
			// The bound failed + g[i] + q·MaxOverlap(i) + rest[i+1] < snap,
			// grouped so that heavy weights cannot wrap it: the right side
			// stays within r·Σw, and the left saturates.
			if g != nil && satAdd(satMul(int64(q), w.in.MaxOverlap(i)), rest[i+1]) < w.snap-int64(failed)-g[i] {
				assertChildSkipSound(w.in, w.cur, i, q, failed, w.snap)
				continue
			}
			newly := w.in.Add(i)
			w.adds++
			cf := failed + newly
			cl := loadSum + w.in.Load(i)
			crem := rem - 1
			cstart := i + 1
			if w.pruneChild(cl, prefix[cstart+crem]-prefix[cstart], i) {
				w.in.Remove(i)
				continue
			}
			if crem == 1 {
				w.cur = append(w.cur, i)
				w.scanLast(cf, cstart)
				w.cur = w.cur[:len(w.cur)-1]
				w.in.Remove(i)
				continue
			}
			if cstart <= m-rem {
				w.deq.push(task{prefix: w.prefixCopy(), start: cstart, failed: failed, loadSum: loadSum})
			}
			w.cur = append(w.cur, i)
			if w.gv != nil {
				d := len(w.cur)
				copy(w.gv[d], w.gv[d-1])
				w.in.patchGains(i, w.gv[d], false)
				w.gvOK[d], w.restLo[d] = true, math.MaxInt
				w.patches++
			}
			failed, loadSum, start = cf, cl, cstart
			descended = true
			break
		}
		if !descended {
			return
		}
	}
}

// restBound fills rest[j] with B_q(j) and node[j] with B_{q+1}(j), for
// every j from start on: bounds on what q more picks from candidates
// j.. can add below a child of the node whose gains are g, and on what
// the node's own q+1 picks from j on can add. With rank weights — a
// pick followed by t−1 later picks raises each of their gains by at
// most its MaxOverlap —
//
//	B_t(j) = max(B_t(j+1), g[j] + (t−1)·MaxOverlap(j) + B_{t−1}(j+1)),  B_0 = 0,
//
// over exactly t picks (see "Pruning bounds" in search.go). So
// B_{q+1}(j) is the largest child bound g[i] + q·MaxOverlap(i) +
// B_q(i+1) over i >= j, and B_1 the suffix maximum of g, which
// scanLast reads too. The columns run from m−1 down, each t from 1 up,
// and the sums saturate: the overlap terms are not bounded by r·Σw.
// O(q·m) per node.
func (w *stealWorker) restBound(g, rest, node []int64, start, q int) {
	m := w.ps.m
	if q == 1 { // every two-picks-left node: the common case, unrolled
		ov, g, rest, node := w.in.ov[:m], g[:m], rest[:m], node[:m]
		b1, b2 := g[m-1], int64(0) // B_1(j+1) and B_2(j+1) entering column j
		rest[m-1] = b1
		for j := m - 2; j >= start; j-- {
			b2 = max(b2, satAdd(g[j]+b1, ov[j]))
			b1 = max(b1, g[j])
			rest[j], node[j] = b1, b2
		}
		return
	}
	col := w.col // col[t]: B_t(j+1) entering column j, B_t(j) leaving it
	for j := m - 1; j >= start; j-- {
		ov := w.in.MaxOverlap(j)
		var acc, below int64 // (t−1)·ov and B_{t−1}(j+1)
		for t := 1; t <= min(q+1, m-j); t++ {
			v := satAdd(satAdd(g[j], acc), below)
			below = col[t]
			if t < m-j { // B_t(j+1) exists: j+1..m-1 holds t candidates
				v = max(v, below)
			}
			col[t] = v
			acc = satAdd(acc, ov)
		}
		rest[j], node[j] = col[q], col[q+1] // read only where q, q+1 <= m-j
	}
}

// satAdd adds two non-negative bounds, saturating at math.MaxInt64.
func satAdd(a, b int64) int64 {
	if s := a + b; s >= 0 {
		return s
	}
	return math.MaxInt64
}

// satMul multiplies two non-negative bounds, saturating at
// math.MaxInt64.
func satMul(a, b int64) int64 {
	if hi, lo := bits.Mul64(uint64(a), uint64(b)); hi == 0 && lo <= math.MaxInt64 {
		return int64(lo)
	}
	return math.MaxInt64
}

// charge consumes one state from the worker's budget lease, claiming a
// fresh chunk — and refreshing the incumbent snapshot — on lease
// boundaries. Returns false when the shared budget is dry.
func (w *stealWorker) charge() bool {
	if w.lease == 0 {
		workers := int64(w.ps.workers)
		n := int64(leaseChunk)
		switch rem := w.ps.bud.Remaining(); {
		case workers == 1 && w.ps.bud.Limit() > 0:
			// A lone worker may share a limited budget with concurrent
			// searches (the constrained engine runs one per domain
			// subset), which would read states leased here but not yet
			// entered as drained. State by state, a dry budget means
			// every state was entered.
			n = 1
		case rem < n*workers:
			// Near the limit: claim an even share so the last states are
			// spread across workers instead of hoarded by the first asker.
			n = rem/workers + 1
		}
		g := w.ps.bud.Lease(n)
		if g == 0 {
			w.ps.exhausted.Store(true)
			return false
		}
		w.lease = g
		if s := w.ps.bestScore.Load(); s > w.snap {
			w.snap = s
		}
	}
	w.lease--
	return true
}

// pruneChild decides whether the just-entered child (cur + next, cl
// chosen load, window the top static loads its picks could add) can be
// cut by the static bound. The bound is admissible, so anything it
// prunes outright is safe; the subtle case is a bound that exactly ties
// the snapshot — such a subtree cannot improve the damage but may hold
// an equal-damage selection that lex-precedes the incumbent, which the
// reduction would have returned. Those subtrees survive unless the
// incumbent is still the seed (ties never displace it) or no leaf below
// can lex-precede the incumbent.
func (w *stealWorker) pruneChild(cl, window int64, next int) bool {
	s := w.ps.s
	if !prunable(cl, window, s, w.snap) {
		return false
	}
	if prunable(cl, window, s, w.snap-1) {
		return true // strictly below the snapshot: no tie possible
	}
	sel := w.ps.bestSel.Load()
	if sel == nil {
		return true // incumbent is the seed; ties keep it
	}
	return !prefixMayPrecede(w.cur, next, *sel)
}

// prefixMayPrecede reports whether some completion of (cur..., next)
// could lex-precede sel. Conservative: equality so far counts as
// possible.
func prefixMayPrecede(cur []int, next int, sel []int) bool {
	for j, v := range cur {
		if j >= len(sel) {
			return false
		}
		if v != sel[j] {
			return v < sel[j]
		}
	}
	if len(cur) >= len(sel) {
		return false
	}
	if next != sel[len(cur)] {
		return next < sel[len(cur)]
	}
	return true
}

// scanLast is the final-level Marginal scan over candidates cstart..m-1
// for the node currently applied to the instance (failed objects down).
// It reports ties too — the reducer needs them for the lex tie-break —
// takes the first of equal maximizers, and skips duplicate candidates:
// candidate j's marginal equals its identical predecessor's, so
// skipping dup[j] (whose representative j-1 >= cstart is scanned)
// changes nothing but the scan work.
//
// The scan stops at the first candidate j whose load is at most
// bestGain (no later candidate can beat the current maximizer) or for
// which failed + load < snap (no later candidate can reach the
// incumbent). Both cuts are exact: Marginal(j) <= Load(j) and loads
// are non-increasing, so every candidate from j on gains at most
// Load(j), and the scan's outcome — the reported maximizer, or no
// report — is what the full scan would produce. A lagging snapshot
// only makes the second cut fire later.
//
// Below a two-picks-left parent under the residual bound (cur is
// non-empty and its last entry is the parent candidate i; runTask keeps
// the parent's gains gp in its gain vector and their suffix maxima in
// rest), the scan also skips every j with
// gp[j] + MaxOverlap(i) <= the same threshold: that bounds Marginal(j)
// (see "Pruning bounds" in search.go), so such a j can neither beat
// bestGain nor reach the snapshot, and if the full scan's maximum does
// reach it, its first maximizer is never skipped. For the same reason
// the scan stops at the first j with rest[j] + MaxOverlap(i) <= the
// threshold: every candidate from j on would be skipped. When the scan
// would stop at its first candidate that way, runTask never applies the
// child (see there). The K == 1 root and BoundStatic scan every
// candidate up to the load cut.
func (w *stealWorker) scanLast(failed, cstart int) {
	m, dup, prefix := w.ps.m, w.ps.dup, w.ps.prefix
	bestI, bestGain := -1, -1
	// Both cuts in one threshold: stop once load <= max(bestGain,
	// snap-failed-1).
	cut := w.snap - int64(failed) - 1
	var gp, rest []int64
	var par int
	var ov int64
	if w.gv != nil && len(w.cur) > 0 {
		d := len(w.cur) - 1
		gp, rest, par = w.gv[d], w.rest[d], w.cur[d]
		ov = w.in.MaxOverlap(par)
	}
	for j := cstart; j < m; j++ {
		load := prefix[j+1] - prefix[j]
		if load <= cut {
			break
		}
		if dup != nil && j > cstart && dup[j] {
			continue
		}
		if gp != nil {
			if rest[j]+ov <= cut {
				assertTailWithinBound(w.in, par, j, gp, ov)
				break
			}
			if gp[j]+ov <= cut {
				assertSkipWithinBound(w.in, par, j, gp[j], ov)
				continue
			}
		}
		g := w.in.Marginal(j)
		w.marginals++
		assertGainWithinLoad(j, g, load)
		if g > bestGain {
			bestGain, bestI = g, j
			cut = max(cut, int64(g))
		}
	}
	if bestI < 0 {
		return
	}
	total := failed + bestGain
	if int64(total) < w.snap {
		return
	}
	w.selBuf = append(append(w.selBuf[:0], w.cur...), bestI)
	w.ps.report(total, w.selBuf)
	if int64(total) > w.snap {
		w.snap = int64(total)
	}
}
