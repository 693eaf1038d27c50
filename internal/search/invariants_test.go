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
	in.Assign(2, [][]Hit{
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}},
		{{Obj: 0, C: 1}, {Obj: 2, C: 1}},
		{{Obj: 2, C: 1}},
	}, nil, nil, true)
	return in
}

func TestInvariantsEnabled(t *testing.T) {
	if !InvariantsEnabled {
		t.Fatal("InvariantsEnabled = false under the invariants tag")
	}
}

// TestAssertInvariantsPassesOnValidMoves exercises the checked paths on
// a healthy instance, fresh from Assign and again after a search: Assign,
// every ApplyMove (the move and its opposite) and CloneForMoves run the
// full audit — the patched index, overlap table and root vector
// included — and must stay silent.
func TestAssertInvariantsPassesOnValidMoves(t *testing.T) {
	for _, searched := range []bool{false, true} {
		in := moveReady(t)
		if searched {
			seed := Greedy(in)
			BranchAndBound(in, seed, NewBudget(0), 2, BoundResidual)
		}
		from, to := in.ApplyMove(0, 0, 2)
		cp := in.CloneForMoves()
		if cp.Len() != in.Len() {
			t.Fatalf("clone Len %d != %d", cp.Len(), in.Len())
		}
		in.ApplyMove(0, to, from)
		cp.ApplyMove(0, to, from)
	}
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
		// The gain-vector machinery.
		{"stale index count", func(in *HitInstance) { in.objHits[0].C++ }, "inverted entry"},
		{"stale index order", func(in *HitInstance) {
			in.objHits[0], in.objHits[1] = in.objHits[1], in.objHits[0]
			in.objCands[0], in.objCands[1] = in.objCands[1], in.objCands[0]
		}, "ascending"},
		{"stale overlap row", func(in *HitInstance) { in.ov[1]++ }, "overlap table"},
		{"stale root vector", func(in *HitInstance) { in.root[2]++ }, "root gain vector"},
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

// TestScanLastCatchesGainAboveLoad proves the scan's premise check is
// live on an instance whose loads understate its hits. At s = 2 and
// K = 1, candidate 0 (two single replicas) gains 0, so the scan reaches
// candidate 1, which holds two objects twice each and gains 2 — above
// the load of 1 recorded for it — and must panic naming it.
func TestScanLastCatchesGainAboveLoad(t *testing.T) {
	in := NewHitInstance(2, 4)
	in.reinit(1, [][]Hit{
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}},
		{{Obj: 2, C: 2}, {Obj: 3, C: 2}},
	}, []int64{2, 1}, nil) // candidate 1's true load is 4
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Marginal above Load not caught")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "candidate 1 ") {
			t.Fatalf("panic %v does not name candidate 1", r)
		}
	}()
	BranchAndBound(in, Result{}, NewBudget(0), 1, BoundStatic)
}

// scanBelow runs the final-level scan below the node prefix (parent
// candidate last) of a one-worker residual-bound run against an
// incumbent of the given damage, with gp standing in for the parent's
// gains.
func scanBelow(in *HitInstance, incumbent int, prefix []int, gp []int64) {
	w := newSearchRun(in, Result{Failed: incumbent}, NewBudget(0), 1, BoundResidual).peers[0]
	w.init()
	w.adopt(prefix)
	copy(w.gv[len(prefix)-1], gp)
	var hi int64
	for j := in.Len() - 1; j >= 0; j-- {
		hi = max(hi, gp[j])
		w.rest[len(prefix)-1][j] = hi
	}
	w.scanLast(0, prefix[len(prefix)-1]+1)
}

// TestParentFilterCatchesBadBound proves the parent-gain filter's
// checks are live: the final-level scan is driven below a hand-applied
// node with understated parent gains, at s = 2 and no failed object.
// In "skip" (below {0, 1}, MaxOverlap(1) = 0) candidate 2 gains 0, then
// candidate 3 is skipped on a parent gain of 0 — candidate 4's parent
// gain of 1 keeps the scan going — yet candidate 3 shares objects 0
// and 1 with candidate 0, so its parent gain is 2 and it truly gains 2.
// In "tail" (below {0}, MaxOverlap(0) = 2, incumbent 3) no parent gain
// plus 2 reaches the incumbent, so the scan stops at candidate 1, yet
// candidate 2 shares objects 0 and 1 with candidate 0 and holds object
// 5 twice, so its parent gain is 1 and it truly gains 3. Both must
// panic, naming the candidate and the parent. The overlap-table audit
// must reject a wrong entry too.
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
	skip.reinit(3, [][]Hit{
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}, {Obj: 2, C: 1}},
		{{Obj: 3, C: 1}, {Obj: 4, C: 1}, {Obj: 5, C: 1}},
		{{Obj: 6, C: 1}, {Obj: 7, C: 1}},
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}},
		{{Obj: 2, C: 1}, {Obj: 6, C: 1}},
	}, []int64{3, 3, 2, 2, 2}, nil)
	tail := NewHitInstance(2, 9)
	tail.reinit(2, [][]Hit{
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}, {Obj: 2, C: 1}, {Obj: 8, C: 1}},
		{{Obj: 3, C: 1}, {Obj: 4, C: 1}, {Obj: 6, C: 1}, {Obj: 7, C: 1}},
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}, {Obj: 5, C: 2}},
	}, []int64{4, 4, 4}, nil)
	t.Run("skip", func(t *testing.T) {
		expectPanic(t, "candidate 3 below parent candidate 1 ", func() {
			scanBelow(skip, 0, []int{0, 1}, []int64{0, 0, 0, 0, 1}) // true parent gains at {0}: 0 0 0 2 1
		})
	})
	t.Run("tail", func(t *testing.T) {
		expectPanic(t, "candidate 2 below parent candidate 0 ", func() {
			scanBelow(tail, 3, []int{0}, []int64{0, 0, 0}) // true parent gains at the root: 0 0 1
		})
	})
	t.Run("audit", func(t *testing.T) {
		if got := tail.MaxOverlap(0); got != 2 {
			t.Fatalf("MaxOverlap(0) = %d, want 2", got)
		}
		expectPanic(t, "candidate 1 has max overlap 1", func() { tail.assertMaxOverlap(1, 1) })
	})
}

// TestChildSkipCatchesBadBound proves the gain-vector search's checks
// are live, on runs driven from a hand-built worker at s = 2 over
// the candidates {0 1}, {0 2}, {1 2} and {3}. In "overlap" (K = 2, the
// first three, incumbent 1) the overlap of candidate 0 is understated
// as 0, so the root skips child 0 on the bound 0 + 0 + 0 + 0 < 1, yet
// {0, 1} fails object 0 and ties the incumbent, which the scan would
// report. In "interior" (K = 3, incumbent 2) the overlap of candidate 0
// is understated as 0, so the root, with two picks below each child,
// skips child 0 on the bound 0 + 0 + 2·0 + 1 < 2, yet {0, 1, 2} fails
// objects 0, 1 and 2; child 1's bound 0 + 2·1 + 0 keeps the root
// itself. In "node" (K = 3, incumbent 1) every overlap is understated
// as 0, so every child bound at the root is 0 and the node-entry prune
// leaves the root on 0 < 1, with the same completion above it. In
// "patch" (K = 3, incumbent 0) the vector of node [0], marked current,
// claims one gain for candidate 3, whose only object needs two
// replicas. All must panic, naming the node's prefix and the candidate
// or the start.
func TestChildSkipCatchesBadBound(t *testing.T) {
	expectPanic := func(t *testing.T, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("bad bound not caught")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
				t.Fatalf("panic %v does not mention %q", r, want)
			}
		}()
		f()
	}
	lists := [][]Hit{
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}},
		{{Obj: 0, C: 1}, {Obj: 2, C: 1}},
		{{Obj: 1, C: 1}, {Obj: 2, C: 1}},
		{{Obj: 3, C: 1}},
	}
	t.Run("overlap", func(t *testing.T) {
		in := NewHitInstance(2, 3)
		in.Assign(2, lists[:3], nil, nil, true)
		w := newSearchRun(in, Result{Failed: 1, Sel: []int{0, 1}}, NewBudget(0), 1, BoundResidual).peers[0]
		w.init()
		if ov := in.MaxOverlap(0); ov != 1 {
			t.Fatalf("MaxOverlap(0) = %d, want 1", ov)
		}
		in.ov = []int64{0, 1, 0} // a private table understating candidate 0
		expectPanic(t, "node []: skipped child 0 with 1 picks below it ", func() { w.runTask(task{}) })
	})
	t.Run("interior", func(t *testing.T) {
		in := NewHitInstance(2, 4)
		in.Assign(3, lists, nil, nil, true)
		w := newSearchRun(in, Result{Failed: 2, Sel: []int{0, 1, 3}}, NewBudget(0), 1, BoundResidual).peers[0]
		w.init()
		if ov := in.MaxOverlap(0); ov != 1 {
			t.Fatalf("MaxOverlap(0) = %d, want 1", ov)
		}
		in.ov = []int64{0, 1, 0, 0} // a private table understating candidate 0
		expectPanic(t, "node []: skipped child 0 with 2 picks below it ", func() { w.runTask(task{}) })
	})
	t.Run("node", func(t *testing.T) {
		in := NewHitInstance(2, 4)
		in.Assign(3, lists, nil, nil, true)
		w := newSearchRun(in, Result{Failed: 1, Sel: []int{0, 1, 3}}, NewBudget(0), 1, BoundResidual).peers[0]
		w.init()
		in.ov = make([]int64, 4) // a private table understating candidates 0 and 1
		expectPanic(t, "node []: pruned at entry with 3 picks left from candidate 0,", func() { w.runTask(task{}) })
	})
	t.Run("patch", func(t *testing.T) {
		in := NewHitInstance(2, 4)
		in.Assign(3, lists, nil, nil, true)
		w := newSearchRun(in, Result{}, NewBudget(0), 1, BoundResidual).peers[0]
		w.init()
		f := in.Add(0)
		in.Gains(w.gv[1])
		in.Remove(0)
		w.gv[1][3]++
		w.gvOK[1] = true
		expectPanic(t, "node [0]: gain vector has 1 for candidate 3,", func() {
			w.runTask(task{prefix: []int{0}, start: 1, failed: f, loadSum: in.Load(0)})
		})
	})
}
