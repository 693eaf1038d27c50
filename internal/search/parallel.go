package search

import "runtime"

// BranchAndBoundParallelWith is BranchAndBoundWith fanned out over a
// work-stealing scheduler (see steal.go): pending work is an explicit
// frontier of {prefix, sibling-range} tasks, each worker explores
// depth-first on its own instance and publishes its shallowest untried
// ranges for idle workers to steal, budget states are consumed from
// leased chunks, and incumbent reads are a local snapshot refreshed on
// lease boundaries. workers <= 0 selects GOMAXPROCS; workers == 1
// degrades to the serial driver on the probe.
//
// probe is a ready (Reset) instance the caller already built — worker 0
// reuses it, so seeding greedy on it first costs no extra construction;
// it is returned clean (the applied prefix fully unwound), so callers
// may reuse it across searches. newInst must return independent
// instances of the same search (same candidate order, loads and damage
// accounting) for the remaining workers; each owns one. bud is shared
// across all workers — the same semantics as the serial driver,
// consumed collectively and accounted exactly.
//
// Exact runs return byte-identical (Failed, Sel) to BranchAndBoundWith.
// With a budget, the set of states visited differs between runs, so
// budgeted results may vary (each is still a valid attack and lower
// bound on the damage). Callers that need to checkpoint or resume the
// search use ParallelSearch directly.
func BranchAndBoundParallelWith(probe Instance, newInst func() (Instance, error), seed Result, bud *Budget, workers int, bound Bound) (Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) //lint:allow nodeterm worker-count default only; results are proven worker-count invariant
	}
	if workers == 1 {
		return BranchAndBoundWith(probe, seed, bud, bound), nil
	}
	ps, err := NewParallelSearch(probe, newInst, seed, bud, workers, bound)
	if err != nil {
		return Result{}, err
	}
	ps.Start()
	return ps.Wait(), nil
}
