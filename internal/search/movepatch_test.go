package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// assertSameTables compares a moved instance with a fresh Assign of the
// same runs: the layout (assertSameLayout), the inverted index and the
// overlap table, which must be all zero at s = 1 (see MaxOverlap). The
// C = 1 strips are conservative on the moved side (a move that
// aggregates drops them for good), so the objCands strip is compared
// only while the moved instance keeps one, and must come and go with
// its objs strip.
func assertSameTables(t *testing.T, tag string, got, want *HitInstance) {
	t.Helper()
	assertSameLayout(t, tag, got, want)
	if !slices.Equal(got.objOffs, want.objOffs) {
		t.Fatalf("%s: objOffs %v, want %v", tag, got.objOffs, want.objOffs)
	}
	if !slices.Equal(got.objHits, want.objHits) {
		t.Fatalf("%s: objHits %v, want %v", tag, got.objHits, want.objHits)
	}
	if (got.objCands != nil) != (got.objs != nil) {
		t.Fatalf("%s: objCands strip present %v, objs strip present %v", tag, got.objCands != nil, got.objs != nil)
	}
	if got.objCands != nil && !slices.Equal(got.objCands, want.objCands) {
		t.Fatalf("%s: objCands %v, want %v", tag, got.objCands, want.objCands)
	}
	if !slices.Equal(got.ov, want.ov) {
		t.Fatalf("%s: overlap table %v, want %v", tag, got.ov, want.ov)
	}
	if got.s == 1 && slices.ContainsFunc(got.ov, func(v int64) bool { return v != 0 }) {
		t.Fatalf("%s: overlap table %v at s = 1, want all zero", tag, got.ov)
	}
}

// assertRootFresh requires the instance's root gain vector to equal a
// fresh Gains pass over want, the same runs built afresh at the clean
// state.
func assertRootFresh(t *testing.T, tag string, got, want *HitInstance) {
	t.Helper()
	g := make([]int64, want.Len())
	want.Gains(g)
	if !slices.Equal(got.root, g) {
		t.Fatalf("%s: root gain vector %v, fresh Gains %v", tag, got.root, g)
	}
}

// FuzzMovePatch is the oracle of ApplyMove's patches to the gain-vector
// machinery and the root gain vector. An instance walks random moves
// and reverts (of the latest unreverted move); after every step its
// inverted index and overlap table (all zero at s = 1) equal those of a
// fresh Assign of the same runs, its root vector equals a fresh Gains
// pass, and a greedy-seeded residual search on each returns the same
// Failed, Sel and Visited. Under the invariants tag every move also
// audits the whole instance. The instances are node-style C = 1 strips, aggregated
// (domain-style, moves may stack replicas), and weighted ones of both
// (weights 0..3), at K = 1..4.
func FuzzMovePatch(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(20), uint8(0), uint8(1), []byte{0x00, 0x02, 0x01, 0x04, 0x03, 0x06})
	f.Add(int64(2), uint8(5), uint8(12), uint8(1), uint8(2), []byte{0x10, 0x20, 0x31, 0x40, 0x51, 0x61, 0x70})
	f.Add(int64(3), uint8(8), uint8(25), uint8(2), uint8(3), []byte{0x00, 0x00, 0x00, 0x01, 0x01, 0x01})
	f.Add(int64(4), uint8(7), uint8(18), uint8(3), uint8(0), []byte{0xfe, 0xfd, 0xfc, 0xfb, 0xfa})
	f.Add(int64(5), uint8(3), uint8(6), uint8(1), uint8(1), []byte{0x02, 0x04, 0x06, 0x08, 0x0a, 0x0c, 0x0e})
	f.Fuzz(func(t *testing.T, seed int64, m8, b8, kind, k8 uint8, ops []byte) {
		m := 2 + int(m8%9)
		b := 1 + int(b8%30)
		k := min(1+int(k8%4), m)
		aggregate, weighted := kind%2 == 1, kind%4 >= 2
		r := 3
		if !aggregate {
			r = min(3, m-1) // a node-style move needs a candidate without the object
		}
		rng := rand.New(rand.NewSource(seed))
		s := 1 + rng.Intn(r)
		mm := randomModel(rng, m, b, r, s, k, aggregate, weighted)
		live := mm.build()
		type applied struct{ obj, fromID, toID int }
		var undo []applied
		if len(ops) > 48 {
			ops = ops[:48]
		}
		for step, op := range ops {
			if op&1 == 1 && len(undo) > 0 {
				a := undo[len(undo)-1]
				undo = undo[:len(undo)-1]
				live.ApplyMove(a.obj, live.Pos(a.toID), live.Pos(a.fromID))
				mm.counts[a.fromID][a.obj]++
				mm.counts[a.toID][a.obj]--
			} else {
				obj, fromID, toID := mm.randomMove(rng, aggregate)
				live.ApplyMove(obj, live.Pos(fromID), live.Pos(toID))
				undo = append(undo, applied{obj, fromID, toID})
			}
			fresh := mm.build()
			assertSameTables(t, "step", live, fresh)
			assertRootFresh(t, "step", live, fresh)
			if step%2 == 0 || op&0x40 != 0 {
				searchBoth(t, "step", live, fresh)
			}
		}
	})
}

// TestRootVectorSearch pins that reading the root gain vector the moves
// patched changes no search: along random move chains on C = 1,
// aggregated and weighted instances, a warm-seeded residual search
// (WarmSeed, then BranchAndBound, seeded with the previous witness) on
// the moved instance returns the same Failed, Sel and Visited as the
// same search on a fresh Assign of the same runs, whose vector is one
// Gains sweep, at 1 and 3 workers. At 3 workers Visited is compared
// when the seed is already optimal: otherwise the incumbent moves under
// a schedule-dependent snapshot, and the count varies from run to run
// whichever vector is read. A CloneForMoves copy carries the vector.
func TestRootVectorSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, kind := range []struct {
		name                string
		aggregate, weighted bool
	}{{"C=1", false, false}, {"aggregated", true, false}, {"weighted", false, true}, {"aggregated-weighted", true, true}} {
		for _, workers := range []int{1, 3} {
			mm := randomModel(rng, 10, 40, 3, 2, 3, kind.aggregate, kind.weighted)
			moved := mm.build()
			var prev []int
			for step := 0; step < 24; step++ {
				if step > 0 {
					obj, fromID, toID := mm.randomMove(rng, kind.aggregate)
					moved.ApplyMove(obj, moved.Pos(fromID), moved.Pos(toID))
				}
				fresh := mm.build()
				tag := fmt.Sprintf("%s/workers=%d step %d", kind.name, workers, step)
				assertRootFresh(t, tag, moved, fresh)
				if cp := moved.CloneForMoves(); !slices.Equal(cp.root, moved.root) {
					t.Fatalf("%s: CloneForMoves did not carry the root vector", tag)
				}
				run := func(in *HitInstance) (Result, Result) {
					seed, _ := WarmSeed(in, prev)
					return seed, BranchAndBound(in, seed, NewBudget(0), workers, BoundResidual)
				}
				_, got := run(moved)
				seed, want := run(fresh)
				if got.Failed != want.Failed || !slices.Equal(got.Sel, want.Sel) || got.Exact != want.Exact {
					t.Fatalf("%s: moved (failed=%d sel=%v), fresh (failed=%d sel=%v)", tag, got.Failed, got.Sel, want.Failed, want.Sel)
				}
				if (workers == 1 || seed.Failed == want.Failed) && got.Visited != want.Visited {
					t.Fatalf("%s: moved visited %d, fresh %d", tag, got.Visited, want.Visited)
				}
				prev = moved.Units(slices.Clone(got.Sel))
			}
		}
	}
}

// aliases reports the slice fields of two values of one struct type
// whose backing arrays start at the same address, by field path,
// descending into nested structs; skip names fields allowed to share.
func aliases(a, b reflect.Value, path string, skip map[string]bool) []string {
	var out []string
	for i := range a.NumField() {
		f := a.Type().Field(i)
		p := path + f.Name
		if skip[p] {
			continue
		}
		x, y := a.Field(i), b.Field(i)
		switch x.Kind() {
		case reflect.Struct:
			out = append(out, aliases(x, y, p+".", skip)...)
		case reflect.Slice:
			if x.Cap() > 0 && y.Cap() > 0 && x.Pointer() == y.Pointer() {
				out = append(out, p)
			}
		}
	}
	return out
}

// TestCloneScratchNotAliased pins what makes copies safe to run beside
// their receiver: after the receiver and its copies have searched and
// (CloneForMoves copies) moved, growing every scratch buffer, no
// scratch slice of a Clone or CloneForMoves copy shares its backing
// with the receiver's, and a CloneForMoves copy shares nothing with it
// but the immutable weight vector.
func TestCloneScratchNotAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, weighted := range []bool{false, true} {
		mm := randomModel(rng, 8, 30, 3, 2, 3, true, weighted)
		in := mm.build()
		exercise := func(x *HitInstance, move bool) {
			seed := Greedy(x)
			BranchAndBound(x, seed, NewBudget(0), 1, BoundResidual)
			if move { // the heaviest candidate's first object onto the lightest
				x.ApplyMove(int(x.hits[0].Obj), 0, x.Len()-1)
			}
		}
		exercise(in, true)
		cl, fm := in.Clone(), in.CloneForMoves()
		exercise(cl, false)
		exercise(fm, true)
		exercise(in, false)
		scratchOnly := map[string]bool{}
		for i := range reflect.TypeFor[HitInstance]().NumField() {
			if f := reflect.TypeFor[HitInstance]().Field(i); f.Name != "sc" {
				scratchOnly[f.Name] = true
			}
		}
		recv := reflect.ValueOf(in).Elem()
		if got := aliases(reflect.ValueOf(cl).Elem(), recv, "", scratchOnly); len(got) > 0 {
			t.Fatalf("weighted=%v: Clone shares scratch %v with its receiver", weighted, got)
		}
		if got := aliases(reflect.ValueOf(fm).Elem(), recv, "", map[string]bool{"w": true}); len(got) > 0 {
			t.Fatalf("weighted=%v: CloneForMoves shares %v with its receiver", weighted, got)
		}
	}
}
