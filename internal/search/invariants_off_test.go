//go:build !invariants

package search

import "testing"

// TestInvariantsCompiledOut pins the default-build contract: the
// assertions cost nothing and fire never, even on a corrupt instance.
func TestInvariantsCompiledOut(t *testing.T) {
	if InvariantsEnabled {
		t.Fatal("InvariantsEnabled = true without the invariants tag")
	}
	in := NewHitInstance(1, 2)
	in.Reinit(1, [][]Hit{{{Obj: 0, C: 1}}, {{Obj: 1, C: 1}}}, []int64{1, 1})
	in.loads[0] = 99              // corrupt: Σ C·w is 1
	in.assertInvariants("test")   // must be a no-op
	assertGainWithinLoad(0, 5, 1) // Marginal above Load: still a no-op
}
