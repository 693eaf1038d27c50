package placement

import (
	"sort"

	"repro/internal/search"
	"repro/internal/topology"
)

// SpreadTelemetry reports how much search work SpreadAcrossDomainsWith's
// candidate scoring actually performed. Hand one in via
// SpreadOpts.Telemetry to have the counters accumulated across every
// exact level (an evaluation either hits the damage memo or costs a
// rebuild; warm seeds count the searches that started from the previous
// candidate's re-validated witness instead of greedy alone).
type SpreadTelemetry struct {
	Evals       int64 // exact candidate evaluations requested
	MemoHits    int64 // answered from the damage memo, no search run
	WarmSeeds   int64 // searches seeded by the previous candidate's witness
	Rebuilds    int64 // instance reinitializations (memo misses)
	MemoEvicted int64 // memo entries evicted by the capacity cap
}

// add folds a worker's counters in — the parallel scorer accumulates
// per-worker telemetry and merges it under one lock (addition
// commutes, so the totals are deterministic at any worker count).
func (t *SpreadTelemetry) add(o SpreadTelemetry) {
	t.Evals += o.Evals
	t.MemoHits += o.MemoHits
	t.WarmSeeds += o.WarmSeeds
	t.Rebuilds += o.Rebuilds
	t.MemoEvicted += o.MemoEvicted
}

// spreadMemoCap bounds a spreadSession's damage memo: comfortably
// above any candidate set the spread pass scores, so eviction only
// triggers for callers that drive a session directly past it.
const spreadMemoCap = 1 << 16

// spreadSession scores spread candidates at one (level, d) through a
// single reused search instance: candidates Reinit the same backing
// arrays instead of allocating fresh instances, the previous
// candidate's witness re-validates into a warm branch-and-bound seed
// (candidate mappings permute the same placement, so their worst
// attacks tend to overlap heavily), and exact damages memoize by
// canonical placement signature so duplicate candidates — the identity
// relabeling chief among them — cost one search, not several.
type spreadSession struct {
	s, d int
	in   *search.HitInstance
	memo map[Sig]int
	tel  *SpreadTelemetry

	// FIFO eviction state: memoCap (<= 0 = unlimited) bounds len(memo);
	// fifo[head:] queues the insertion order.
	memoCap int
	fifo    []Sig
	head    int

	lastSel []int // previous witness, in domain-id space
	pos     []int // pos[domain id] = candidate position after the last Reinit
	ids     []int
	lists   [][]search.Hit
	loads   []int64
}

func newSpreadSession(s, d, b, numDomains, memoCap int, tel *SpreadTelemetry) *spreadSession {
	return &spreadSession{
		s: s, d: d,
		in:      search.NewHitInstance(s, b),
		memo:    make(map[Sig]int),
		memoCap: memoCap,
		tel:     tel,
		pos:     make([]int, numDomains),
		ids:     make([]int, numDomains),
		lists:   make([][]search.Hit, numDomains),
		loads:   make([]int64, numDomains),
	}
}

// memoize records an exact damage under sig, evicting the oldest entry
// once the cap is crossed — a capped session stays correct (an evicted
// placement just re-searches) while a long probe chain's memory stays
// bounded.
func (ss *spreadSession) memoize(sig Sig, damage int) {
	if _, ok := ss.memo[sig]; ok {
		return
	}
	ss.memo[sig] = damage
	ss.fifo = append(ss.fifo, sig)
	if ss.memoCap > 0 && len(ss.memo) > ss.memoCap {
		delete(ss.memo, ss.fifo[ss.head])
		ss.head++
		ss.tel.MemoEvicted++
		if ss.head > len(ss.fifo)/2 {
			ss.fifo = append(ss.fifo[:0], ss.fifo[ss.head:]...)
			ss.head = 0
		}
	}
}

// damage returns the exact worst d-domain damage of pl under flat —
// the same number package adversary's domain engines compute (lost
// weight under a non-nil w) — via memo or warm-seeded exact
// branch-and-bound on the reused instance.
func (ss *spreadSession) damage(pl *Placement, flat *topology.Topology, w []int64) int {
	ss.tel.Evals++
	sig := WeightSignature(Signature(pl), w)
	if v, ok := ss.memo[sig]; ok {
		ss.tel.MemoHits++
		return v
	}
	ss.tel.Rebuilds++

	byDomain, loads := DomainHits(pl, flat)
	if w != nil {
		for di, hl := range byDomain {
			var sum int64
			for _, h := range hl {
				sum += int64(h.C) * w[h.Obj]
			}
			loads[di] = sum
		}
	}
	nd := len(byDomain)
	order := ss.ids[:nd]
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if loads[order[a]] != loads[order[b]] {
			return loads[order[a]] > loads[order[b]]
		}
		return order[a] < order[b]
	})
	for p, di := range order {
		ss.pos[di] = p
		ss.lists[p] = byDomain[di]
		ss.loads[p] = loads[di]
	}
	ss.in.Reinit(ss.d, ss.lists[:nd], ss.loads[:nd])
	ss.in.SetWeights(w)

	seed := search.Greedy(ss.in)
	ss.in.Reset()
	if ss.lastSel != nil {
		sel := make([]int, len(ss.lastSel))
		for i, di := range ss.lastSel {
			sel[i] = ss.pos[di]
		}
		sort.Ints(sel)
		if rv := search.Revalidate(ss.in, sel); rv > seed.Failed {
			seed = search.Result{Failed: rv, Sel: sel}
			ss.tel.WarmSeeds++
		}
	}
	res := search.BranchAndBoundWith(ss.in, seed, search.NewBudget(0), search.BoundResidual)

	sel := make([]int, len(res.Sel))
	for i, p := range res.Sel {
		sel[i] = order[p]
	}
	ss.lastSel = sel
	ss.memoize(sig, res.Failed)
	return res.Failed
}
