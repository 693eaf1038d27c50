package search

import (
	"testing"
)

// cloneMovesFixture builds a small move-enabled instance: 6 units over
// 8 objects, C = 1 hits, loads 4, 3, 3, 2, 2, 2 (already in canonical
// order, so unit u starts at position u).
func cloneMovesFixture(t *testing.T) *HitInstance {
	t.Helper()
	lists := [][]Hit{
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}, {Obj: 2, C: 1}, {Obj: 3, C: 1}},
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}, {Obj: 4, C: 1}},
		{{Obj: 2, C: 1}, {Obj: 5, C: 1}, {Obj: 6, C: 1}},
		{{Obj: 3, C: 1}, {Obj: 4, C: 1}},
		{{Obj: 5, C: 1}, {Obj: 7, C: 1}},
		{{Obj: 6, C: 1}, {Obj: 7, C: 1}},
	}
	in := NewHitInstance(2, 8)
	in.Assign(2, lists, nil, nil, true)
	return in
}

// TestCloneForMovesIsolation pins the fork contract CloneForMoves
// exists for: a move applied to the clone must leave the receiver's
// search results — and a move applied to the receiver must leave the
// clone's — byte-identical to an untouched twin, unlike Clone, whose
// shared CSR arrays ApplyMove would corrupt.
func TestCloneForMovesIsolation(t *testing.T) {
	parent := cloneMovesFixture(t)
	pristine := cloneMovesFixture(t)
	base := Exhaustive(pristine)

	child := parent.CloneForMoves()
	// Mutate the child heavily: move object 0 off the heaviest candidate
	// and back, then leave a net move in place.
	child.ApplyMove(0, 0, 3)
	child.ApplyMove(1, 0, 4)
	if got := Exhaustive(parent); got.Failed != base.Failed {
		t.Fatalf("child moves changed the parent: damage %d, want %d", got.Failed, base.Failed)
	}
	// Residual-pruned search on the parent after child moves: it reads
	// the parent's own (untouched) index, overlap table and root vector.
	seed := Greedy(parent)
	if got := BranchAndBound(parent, seed, NewBudget(0), 1, BoundResidual); got.Failed != base.Failed {
		t.Fatalf("parent residual search after child moves: damage %d, want %d", got.Failed, base.Failed)
	}

	// And the reverse: parent moves must not leak into a fresh clone.
	parent2 := cloneMovesFixture(t)
	child2 := parent2.CloneForMoves()
	childBase := Exhaustive(child2)
	if childBase.Failed != base.Failed {
		t.Fatalf("clone damage %d, want %d", childBase.Failed, base.Failed)
	}
	parent2.ApplyMove(0, 0, 3)
	if got := Exhaustive(child2); got.Failed != base.Failed {
		t.Fatalf("parent moves changed the clone: damage %d, want %d", got.Failed, base.Failed)
	}
}

// TestCloneForMovesRoundTrip checks a clone behaves exactly like a
// fresh instance under the move machinery: a move and its opposite restore the
// original damage, and the clone's own unit positions follow its
// re-sorts while the parent's stay put.
func TestCloneForMovesRoundTrip(t *testing.T) {
	parent := cloneMovesFixture(t)
	base := Exhaustive(parent)

	child := parent.CloneForMoves()
	// Moving object 7 from unit 4 (load 2 → 1, sinks to the end) to
	// unit 2 (load 3 → 4, rises past unit 1 to tie unit 0) forces
	// re-sort swaps.
	nf, nt := child.ApplyMove(7, 4, 2)
	if nf != 5 || nt != 1 || child.Pos(4) != nf || child.Pos(2) != nt || child.Pos(1) != 2 {
		t.Fatalf("clone positions after the move: ApplyMove (%d, %d), Pos(4, 2, 1) = (%d, %d, %d), want (5, 1) and (5, 1, 2)",
			nf, nt, child.Pos(4), child.Pos(2), child.Pos(1))
	}
	for u := 0; u < parent.Len(); u++ {
		if parent.Pos(u) != u {
			t.Fatalf("clone move re-sorted the parent: Pos(%d) = %d", u, parent.Pos(u))
		}
	}
	child.ApplyMove(7, nt, nf)
	back := Exhaustive(child)
	if back.Failed != base.Failed {
		t.Fatalf("round trip on clone: damage %d, want %d", back.Failed, base.Failed)
	}
	for u := 0; u < child.Len(); u++ {
		if child.Pos(u) != u {
			t.Fatalf("round trip on clone: Pos(%d) = %d, want %d", u, child.Pos(u), u)
		}
	}
}
