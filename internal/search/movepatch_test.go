package search

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// assertSamePrepared compares a moved, prepared instance with a fresh
// Assign + prepare of the same runs: the layout (assertSameLayout), the
// inverted index, the overlap table and the clean-state residual
// baselines. The C = 1 strips are conservative on the moved side (a
// move that aggregates drops them for good), so the objCands strip is
// compared only while the moved instance keeps one, and must come and
// go with its objs strip.
func assertSamePrepared(t *testing.T, tag string, got, want *HitInstance) {
	t.Helper()
	assertSameLayout(t, tag, got, want)
	if !got.prepared || !want.prepared {
		t.Fatalf("%s: prepared %v, fresh prepared %v", tag, got.prepared, want.prepared)
	}
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
	if !slices.Equal(got.full, want.full) || got.fullSum != want.fullSum {
		t.Fatalf("%s: full %v (Σ %d), want %v (Σ %d)", tag, got.full, got.fullSum, want.full, want.fullSum)
	}
	if !slices.Equal(got.resid, want.resid) || got.residAll != want.residAll || got.deadSpent != want.deadSpent {
		t.Fatalf("%s: resid %v (Σ %d, dead %d), want %v (Σ %d, dead %d)",
			tag, got.resid, got.residAll, got.deadSpent, want.resid, want.residAll, want.deadSpent)
	}
}

// FuzzMovePatch is the oracle of ApplyMove's patches to the residual
// machinery. A prepared instance walks random moves and reverts (of
// the latest unreverted move); after every step its inverted index,
// overlap table and residual baselines equal those of a fresh Assign +
// prepare of the same runs, and a greedy-seeded residual search on each
// returns the same Failed, Sel and Visited. The instances are node-style
// C = 1 strips, aggregated (domain-style, moves may stack replicas), and
// weighted ones of both (weights 0..3), at K = 1..4.
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
		live.prepare()
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
			fresh.prepare()
			assertSamePrepared(t, "step", live, fresh)
			if step%2 == 0 || op&0x40 != 0 {
				searchBoth(t, "step", live, fresh)
			}
		}
	})
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
			x.Reset()
			BranchAndBound(x, seed, NewBudget(0), 1, BoundResidual)
			x.TopResidual(0, 3)
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
