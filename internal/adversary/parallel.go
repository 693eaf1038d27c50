package adversary

import (
	"sync"

	"repro/internal/combin"
)

// This file fans the constrained search out over worker goroutines. The
// node- and domain-level engines need nothing here: SearchOpts.Workers
// routes them to the core's work-stealing driver
// (search.BranchAndBoundParallelWith — a scheduler over explicit
// {prefix, sibling-range} frontier tasks, so skewed trees rebalance
// instead of starving workers) through runBranchAndBound. The
// constrained search is already task-parallel by construction and
// shards the domain-subset enumeration instead. In every case workers
// share the incumbent bound, so a strong attack found by one worker
// prunes the others, and they share the state budget — consumed in
// leased chunks that are settled at exit, keeping the package-wide
// one-state-per-partial-attack accounting exact.

// searchPar is the sharded constrained search: each worker runs the
// per-subset step (searchSubset) serially with its own reusable scratch
// instance, while the incumbent damage and the state budget are shared.
func (cr *constrainedRun) searchPar(workers int) {
	// One producer enumerates the C(D, d) subsets; workers steal them
	// from the channel, so expensive subsets don't serialize behind a
	// static partition. A drained budget aborts the enumeration; the
	// skipped subsets make the result inexact even if every search that
	// did run happened to complete (aborted is ordered before the
	// channel close the workers observe, so reading it after Wait is
	// race-free).
	jobs := make(chan []int, 2*workers)
	aborted := false
	go func() {
		defer close(jobs)
		combin.ForEachSubset(cr.sh.topo.NumDomains(), cr.sh.d, func(domains []int) bool {
			if cr.bud.Exhausted() {
				aborted = true
				return false
			}
			jobs <- append([]int(nil), domains...)
			return true
		})
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := cr.sh.newScratch()
			for domains := range jobs {
				cr.searchSubset(domains, sc)
			}
		}()
	}
	wg.Wait()
	if aborted {
		cr.best.Exact = false
	}
}
