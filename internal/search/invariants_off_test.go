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
	in.reinit(1, [][]Hit{{{Obj: 0, C: 1}}, {{Obj: 1, C: 1}}}, []int64{1, 1}, nil)
	in.loads[0] = 99                                  // corrupt: Σ C·w is 1
	in.assertInvariants("test")                       // must be a no-op
	assertGainWithinLoad(0, 5, 1)                     // Marginal above Load: still a no-op
	assertSkipWithinBound(in, 0, 1, 0, 0)             // Marginal 1 above the bound 0: a no-op
	assertTailWithinBound(in, 0, 1, []int64{0, 0}, 0) // likewise, from candidate 1 on
	in.assertMaxOverlap(0, 7)                         // true overlap is 0: a no-op
	assertGainsFresh(in, nil, []int64{5, 5})          // true gains are 1 and 1: a no-op
	assertChildSkipSound(in, nil, 0, 1, 3, 0)         // the child reaches 5 >= 0: a no-op
	assertNodePruneSound(in, nil, 0, 1, 0, 1)         // candidate 0 alone reaches 1: a no-op
}
