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
