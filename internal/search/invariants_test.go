//go:build invariants

package search

import (
	"strings"
	"testing"
)

// moveReady builds a small move-enabled instance in canonical order:
// three candidates with loads 2, 2, 1.
func moveReady(t *testing.T) *HitInstance {
	t.Helper()
	in := NewHitInstance(1, 3)
	in.Reinit(2, [][]Hit{
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}},
		{{Obj: 0, C: 1}, {Obj: 2, C: 1}},
		{{Obj: 2, C: 1}},
	}, []int64{2, 2, 1})
	in.EnableMoves([]int32{0, 1, 2}, nil)
	return in
}

func TestInvariantsEnabled(t *testing.T) {
	if !InvariantsEnabled {
		t.Fatal("InvariantsEnabled = false under the invariants tag")
	}
}

// TestAssertInvariantsPassesOnValidMoves exercises the checked paths on
// a healthy instance: every ApplyMove, RevertMove and CloneForMoves
// runs the full CSR audit and must stay silent.
func TestAssertInvariantsPassesOnValidMoves(t *testing.T) {
	in := moveReady(t)
	from, to := in.ApplyMove(0, 0, 2)
	cp := in.CloneForMoves()
	if cp.Len() != in.Len() {
		t.Fatalf("clone Len %d != %d", cp.Len(), in.Len())
	}
	in.RevertMove(0, from, to)
}

// TestAssertInvariantsCatchesCorruption corrupts one derived quantity
// and expects the audit to panic: this is the fixture proving the
// assertions are live, not compiled out.
func TestAssertInvariantsCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(in *HitInstance)
		wantMsg string
	}{
		{"load drift", func(in *HitInstance) { in.loads[2]++ }, "load"},
		{"zero count", func(in *HitInstance) { in.hits[0].C = 0 }, "count"},
		{"unsorted run", func(in *HitInstance) {
			in.hits[0], in.hits[1] = in.hits[1], in.hits[0]
		}, "ascending"},
		{"dirty counter", func(in *HitInstance) { in.cnt[1] = 1 }, "counter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := moveReady(t)
			tc.corrupt(in)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("corruption not caught")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, tc.wantMsg) {
					t.Fatalf("panic %v does not mention %q", r, tc.wantMsg)
				}
			}()
			if tc.name == "unsorted run" || tc.name == "zero count" {
				// The objs strip would mask run corruption: drop it so
				// the run checks themselves fire.
				in.objs = nil
			}
			in.assertInvariants("test")
		})
	}
}

// overMarginal is an Instance breaking the final-level cut's premise:
// candidate liar reports a marginal gain one above its load.
type overMarginal struct {
	*HitInstance
	liar int
}

func (o *overMarginal) Marginal(i int) int {
	if i == o.liar {
		return int(o.Load(i)) + 1
	}
	return o.HitInstance.Marginal(i)
}

// TestScanLastCatchesGainAboveLoad proves the scan's premise check is
// live: at s = 2 and K = 1 every honest gain is 0, so the scan reaches
// candidate 1, whose inflated Marginal must panic naming it.
func TestScanLastCatchesGainAboveLoad(t *testing.T) {
	in := NewHitInstance(2, 4)
	in.Reinit(1, [][]Hit{
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}},
		{{Obj: 1, C: 1}, {Obj: 2, C: 1}},
		{{Obj: 3, C: 1}},
	}, []int64{2, 2, 1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Marginal above Load not caught")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "candidate 1 ") {
			t.Fatalf("panic %v does not name candidate 1", r)
		}
	}()
	BranchAndBound(&overMarginal{HitInstance: in, liar: 1}, nil, Result{}, NewBudget(0), 1, BoundStatic)
}

// lowOverlap is an Instance understating the parent-gain filter's
// bound: it claims no candidate shares an object with a later one.
type lowOverlap struct{ *HitInstance }

func (lowOverlap) MaxOverlap(int) int64 { return 0 }

// TestParentFilterCatchesBadBound proves the parent-gain filter's
// checks are live, with the understated overlap of lowOverlap at s = 2.
// In "skip" (K = 3) the scan below {0, 1} gets gain 0 from candidate 2,
// then skips candidate 3 on its parent gain of 0 — candidate 4's parent
// gain of 2 keeps the scan going — yet candidate 3 shares objects 3 and
// 4 with candidate 1 and truly gains 2. In "tail" (K = 2) every root
// gain is 0, so once candidate 1's gain of 0 is in hand the scan below
// candidate 0 stops before candidate 2, which shares objects 0 and 1
// with candidate 0. Both must panic, naming the candidate and the
// parent. The MaxOverlap audit must reject a wrong answer too.
func TestParentFilterCatchesBadBound(t *testing.T) {
	expectPanic := func(t *testing.T, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("understated bound not caught")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
				t.Fatalf("panic %v does not mention %q", r, want)
			}
		}()
		f()
	}
	skip := NewHitInstance(2, 8)
	skip.Reinit(3, [][]Hit{
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}, {Obj: 2, C: 1}},
		{{Obj: 3, C: 1}, {Obj: 4, C: 1}, {Obj: 5, C: 1}},
		{{Obj: 6, C: 1}, {Obj: 7, C: 1}},
		{{Obj: 3, C: 1}, {Obj: 4, C: 1}},
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}},
	}, []int64{3, 3, 2, 2, 2})
	tail := NewHitInstance(2, 5)
	tail.Reinit(2, [][]Hit{
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}, {Obj: 2, C: 1}},
		{{Obj: 3, C: 1}, {Obj: 4, C: 1}},
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}},
	}, []int64{3, 2, 2})
	t.Run("skip", func(t *testing.T) {
		expectPanic(t, "candidate 3 below parent candidate 1 ", func() {
			BranchAndBound(lowOverlap{skip}, nil, Result{}, NewBudget(0), 1, BoundResidual)
		})
	})
	t.Run("tail", func(t *testing.T) {
		expectPanic(t, "candidate 2 below parent candidate 0 ", func() {
			BranchAndBound(lowOverlap{tail}, nil, Result{}, NewBudget(0), 1, BoundResidual)
		})
	})
	t.Run("audit", func(t *testing.T) {
		tail.Reset()
		tail.EnableResidual()
		if got := tail.MaxOverlap(0); got != 2 {
			t.Fatalf("MaxOverlap(0) = %d, want 2", got)
		}
		expectPanic(t, "candidate 1 has max overlap 1", func() { tail.assertMaxOverlap(1, 1) })
	})
}
