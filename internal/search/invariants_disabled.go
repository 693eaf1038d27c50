//go:build !invariants

package search

// InvariantsEnabled reports whether the build carries the runtime
// invariant assertions (`go test -tags invariants`).
const InvariantsEnabled = false

// assertInvariants is a no-op in regular builds; the call sites inline
// away entirely.
func (in *HitInstance) assertInvariants(string) {}

// assertGainWithinLoad is a no-op in regular builds; the final-level
// scan's call inlines away entirely.
func assertGainWithinLoad(int, int, int64) {}

// assertSkipWithinBound is a no-op in regular builds; the final-level
// scan's call inlines away entirely.
func assertSkipWithinBound(*HitInstance, int, int, int64, int64) {}

// assertTailWithinBound is a no-op in regular builds; the final-level
// scan's call inlines away entirely.
func assertTailWithinBound(*HitInstance, int, int, []int64, int64) {}

// assertGainsFresh is a no-op in regular builds; runTask's and Greedy's
// calls inline away entirely.
func assertGainsFresh(*HitInstance, []int, []int64) {}

// assertChildSkipSound is a no-op in regular builds; runTask's call
// inlines away entirely.
func assertChildSkipSound(*HitInstance, []int, int, int, int, int64) {}

// assertNodePruneSound is a no-op in regular builds; runTask's call
// inlines away entirely.
func assertNodePruneSound(*HitInstance, []int, int, int, int, int64) {}

// assertMaxOverlap is a no-op in regular builds; overlapRow's call
// inlines away entirely.
func (in *HitInstance) assertMaxOverlap(int, int64) {}
