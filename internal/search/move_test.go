package search

import (
	"math/rand"
	"testing"
)

// moveModel is the rebuilt-from-scratch oracle ApplyMove is tested
// against: a plain per-candidate × per-object replica-count matrix,
// from which a fresh instance can be assigned at any time.
type moveModel struct {
	s      int
	k      int
	counts [][]int32 // [candidate id][object] replica count
	w      []int64   // optional object weights
}

func (mm *moveModel) numObjects() int { return len(mm.counts[0]) }

// build assigns a fresh instance over every unit of the model, idle
// ones included, the way the session and the spread scorer do.
func (mm *moveModel) build() *HitInstance {
	byID := make([][]Hit, len(mm.counts))
	for id, row := range mm.counts {
		for obj, c := range row {
			if c > 0 {
				byID[id] = append(byID[id], Hit{Obj: int32(obj), C: c})
			}
		}
	}
	in := NewHitInstance(mm.s, mm.numObjects())
	in.Assign(mm.k, byID, mm.w, nil, true)
	return in
}

// randomModel populates a model with objects of r replicas spread over
// candidates; aggregate allows multi-replica hits (domain-style).
func randomModel(rng *rand.Rand, m, objects, r, s, k int, aggregate, weighted bool) *moveModel {
	mm := &moveModel{s: s, k: k, counts: make([][]int32, m)}
	for id := range mm.counts {
		mm.counts[id] = make([]int32, objects)
	}
	for obj := 0; obj < objects; obj++ {
		for rep := 0; rep < r; rep++ {
			id := rng.Intn(m)
			if !aggregate {
				// Node-style: distinct candidates per object.
				for mm.counts[id][obj] > 0 {
					id = (id + 1) % m
				}
			}
			mm.counts[id][obj]++
		}
	}
	if weighted {
		mm.w = make([]int64, objects)
		for obj := range mm.w {
			mm.w[obj] = int64(rng.Intn(4)) // 0 included: weightless moves
		}
	}
	return mm
}

// randomMove picks a random applicable (obj, fromID, toID) and applies
// it to the model. aggregate permits moving onto a candidate already
// holding the object.
func (mm *moveModel) randomMove(rng *rand.Rand, aggregate bool) (obj, fromID, toID int) {
	m := len(mm.counts)
	for {
		obj = rng.Intn(mm.numObjects())
		fromID = rng.Intn(m)
		if mm.counts[fromID][obj] == 0 {
			continue
		}
		toID = rng.Intn(m)
		if toID == fromID {
			continue
		}
		if !aggregate && mm.counts[toID][obj] > 0 {
			continue
		}
		mm.counts[fromID][obj]--
		mm.counts[toID][obj]++
		return obj, fromID, toID
	}
}

// assertSameLayout compares the moved instance against a freshly built
// oracle: the whole immutable surface the searches read. The C = 1
// strip is conservative (dropped forever once any count aggregates),
// so it is only required equal while the moved instance still has one.
func assertSameLayout(t *testing.T, tag string, got, want *HitInstance) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, want %d", tag, got.Len(), want.Len())
	}
	for i := range got.offs {
		if got.offs[i] != want.offs[i] {
			t.Fatalf("%s: offs[%d] = %d, want %d", tag, i, got.offs[i], want.offs[i])
		}
	}
	if len(got.hits) != len(want.hits) {
		t.Fatalf("%s: %d hits, want %d", tag, len(got.hits), len(want.hits))
	}
	for i := range got.hits {
		if got.hits[i] != want.hits[i] {
			t.Fatalf("%s: hits[%d] = %+v, want %+v", tag, i, got.hits[i], want.hits[i])
		}
	}
	for i := range got.loads {
		if got.loads[i] != want.loads[i] {
			t.Fatalf("%s: loads[%d] = %d, want %d", tag, i, got.loads[i], want.loads[i])
		}
		if got.ids[i] != want.ids[i] {
			t.Fatalf("%s: unit at %d is %d, want %d", tag, i, got.ids[i], want.ids[i])
		}
		if got.Pos(want.ids[i]) != i {
			t.Fatalf("%s: Pos(%d) = %d, want %d", tag, want.ids[i], got.Pos(want.ids[i]), i)
		}
	}
	if got.objs != nil {
		if want.objs == nil {
			t.Fatalf("%s: moved instance kept a C=1 strip the oracle lacks", tag)
		}
		for i := range got.objs {
			if got.objs[i] != want.objs[i] {
				t.Fatalf("%s: objs[%d] = %d, want %d", tag, i, got.objs[i], want.objs[i])
			}
		}
	}
}

// searchBoth runs the standard greedy-seeded branch-and-bound on both
// instances and requires byte-identical results — same damage, same
// witness, same exactness, same visited states.
func searchBoth(t *testing.T, tag string, moved, fresh *HitInstance) {
	t.Helper()
	run := func(in *HitInstance) Result {
		seed := Greedy(in)
		return BranchAndBound(in, seed, NewBudget(0), 1, BoundResidual)
	}
	got, want := run(moved), run(fresh)
	if got.Failed != want.Failed || got.Exact != want.Exact || got.Visited != want.Visited {
		t.Fatalf("%s: moved search (failed=%d exact=%v visited=%d), fresh (failed=%d exact=%v visited=%d)",
			tag, got.Failed, got.Exact, got.Visited, want.Failed, want.Exact, want.Visited)
	}
	if len(got.Sel) != len(want.Sel) {
		t.Fatalf("%s: witness length %d, want %d", tag, len(got.Sel), len(want.Sel))
	}
	for i := range got.Sel {
		if got.Sel[i] != want.Sel[i] {
			t.Fatalf("%s: witness %v, want %v", tag, got.Sel, want.Sel)
		}
	}
}

// TestApplyMoveMatchesRebuild drives random move chains through a live
// instance — interleaved with full searches — and checks after every
// move that the patched layout and its search results are
// byte-identical to a fresh canonical rebuild.
func TestApplyMoveMatchesRebuild(t *testing.T) {
	cases := []struct {
		name                string
		aggregate, weighted bool
	}{
		{"node-unit", false, false},
		{"domain-aggregate", true, false},
		{"node-weighted", false, true},
		{"domain-weighted", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 20; trial++ {
				mm := randomModel(rng, 8, 30, 3, 2, 3, tc.aggregate, tc.weighted)
				live := mm.build()
				for mv := 0; mv < 12; mv++ {
					obj, fromID, toID := mm.randomMove(rng, tc.aggregate)
					live.ApplyMove(obj, live.Pos(fromID), live.Pos(toID))
					fresh := mm.build()
					tag := tc.name
					assertSameLayout(t, tag, live, fresh)
					if mv%3 == 0 { // search on some states of the chain
						searchBoth(t, tag, live, fresh)
					}
				}
			}
		})
	}
}

// TestMoveRoundTripRestores checks that a move followed by the
// opposite move is the identity on the full layout, unit ids included,
// also after searches on the instance.
func TestMoveRoundTripRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		mm := randomModel(rng, 7, 25, 3, 2, 3, trial%2 == 0, false)
		live := mm.build()
		if trial%3 == 0 {
			seed := Greedy(live)
			BranchAndBound(live, seed, NewBudget(0), 1, BoundResidual)
		}
		snapshot := mm.build()
		obj, fromID, toID := mm.randomMove(rng, trial%2 == 0)
		nf, nt := live.ApplyMove(obj, live.Pos(fromID), live.Pos(toID))
		if nf != live.Pos(fromID) || nt != live.Pos(toID) {
			t.Fatalf("returned positions (%d,%d) disagree with Pos (%d,%d)",
				nf, nt, live.Pos(fromID), live.Pos(toID))
		}
		live.ApplyMove(obj, nt, nf)
		mm.counts[fromID][obj]++
		mm.counts[toID][obj]--
		assertSameLayout(t, "revert", live, snapshot)
		searchBoth(t, "revert", live, snapshot)
	}
}

// TestRevalidate checks the warm-start helper returns the witness's
// damage and leaves the counters clean.
func TestRevalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mm := randomModel(rng, 8, 30, 3, 2, 3, false, false)
	in := mm.build()
	seed := Greedy(in)
	res := BranchAndBound(in, seed, NewBudget(0), 1, BoundResidual)
	if rv := Revalidate(in, res.Sel); rv != res.Failed {
		t.Fatalf("Revalidate(witness) = %d, want the witness damage %d", rv, res.Failed)
	}
	// Counters clean: a second identical search reproduces the result.
	seed2 := Greedy(in)
	res2 := BranchAndBound(in, seed2, NewBudget(0), 1, BoundResidual)
	if res2.Failed != res.Failed || res2.Visited != res.Visited {
		t.Fatalf("search after Revalidate diverged: (failed=%d visited=%d), want (failed=%d visited=%d)",
			res2.Failed, res2.Visited, res.Failed, res.Visited)
	}
}

// TestWarmSeedReturnsWitnessVerbatim pins the warm-start driver
// contract: seeding branch-and-bound with a re-validated witness that
// is already optimal returns that witness unchanged (drivers replace
// the incumbent only on strict improvement).
func TestWarmSeedReturnsWitnessVerbatim(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mm := randomModel(rng, 8, 30, 3, 2, 3, false, false)
	in := mm.build()
	seed := Greedy(in)
	opt := BranchAndBound(in, seed, NewBudget(0), 1, BoundResidual)
	warm := BranchAndBound(in, Result{Failed: opt.Failed, Sel: opt.Sel}, NewBudget(0), 1, BoundResidual)
	if warm.Failed != opt.Failed || !warm.Exact {
		t.Fatalf("warm re-search: failed=%d exact=%v, want failed=%d exact=true", warm.Failed, warm.Exact, opt.Failed)
	}
	for i := range warm.Sel {
		if warm.Sel[i] != opt.Sel[i] {
			t.Fatalf("warm re-search witness %v, want the seed witness %v", warm.Sel, opt.Sel)
		}
	}
	if warm.Visited > opt.Visited {
		t.Fatalf("warm re-search visited %d states, more than the cold %d", warm.Visited, opt.Visited)
	}
}

// FuzzMoveRevert drives arbitrary move/revert sequences from fuzz data
// against the rebuilt-from-scratch oracle.
func FuzzMoveRevert(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x13, 0x42, 0x7f, 0x01, 0x99})
	f.Add(int64(42), []byte{0xff, 0xee, 0xdd, 0x10, 0x20, 0x30, 0x40, 0x50})
	f.Add(int64(7), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		aggregate := seed%2 == 0
		mm := randomModel(rng, 6, 20, 3, 2, 3, aggregate, seed%3 == 0)
		live := mm.build()
		type applied struct{ obj, fromID, toID int }
		var undoable []applied
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for _, op := range ops {
			if op&1 == 1 && len(undoable) > 0 {
				// Revert the most recent un-reverted move.
				a := undoable[len(undoable)-1]
				undoable = undoable[:len(undoable)-1]
				live.ApplyMove(a.obj, live.Pos(a.toID), live.Pos(a.fromID))
				mm.counts[a.fromID][a.obj]++
				mm.counts[a.toID][a.obj]--
			} else {
				obj, fromID, toID := mm.randomMove(rng, aggregate)
				live.ApplyMove(obj, live.Pos(fromID), live.Pos(toID))
				undoable = append(undoable, applied{obj, fromID, toID})
			}
			fresh := mm.build()
			assertSameLayout(t, "fuzz", live, fresh)
			if op&0x40 != 0 { // occasionally run the full search comparison
				searchBoth(t, "fuzz", live, fresh)
			}
		}
	})
}
