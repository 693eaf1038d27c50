package search

import (
	"math/rand"
	"testing"
)

// moveModel is the rebuilt-from-scratch oracle ApplyMove is tested
// against: a plain per-candidate × per-object replica-count matrix,
// from which a canonical instance (candidates by load descending, ties
// by id ascending — the engine adapters' order) can be built at any
// time.
type moveModel struct {
	s      int
	k      int
	counts [][]int32 // [candidate id][object] replica count
	w      []int64   // optional object weights
}

func (mm *moveModel) numObjects() int { return len(mm.counts[0]) }

func (mm *moveModel) load(id int) int64 {
	var sum int64
	for obj, c := range mm.counts[id] {
		wv := int64(1)
		if mm.w != nil {
			wv = mm.w[obj]
		}
		sum += int64(c) * wv
	}
	return sum
}

// order returns candidate ids in canonical instance order.
func (mm *moveModel) order() []int {
	m := len(mm.counts)
	ids := make([]int, m)
	for i := range ids {
		ids[i] = i
	}
	loads := make([]int64, m)
	for id := range loads {
		loads[id] = mm.load(id)
	}
	for i := 1; i < m; i++ { // insertion sort: stable, tiny m
		for j := i; j > 0 && (loads[ids[j]] > loads[ids[j-1]] ||
			(loads[ids[j]] == loads[ids[j-1]] && ids[j] < ids[j-1])); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// build stamps a fresh canonical instance; pos maps candidate id →
// position and is kept current by the onSwap mirror when live is true.
func (mm *moveModel) build(live bool) (in *HitInstance, ids []int, pos []int) {
	ids = mm.order()
	m := len(ids)
	pos = make([]int, m)
	lists := make([][]Hit, m)
	loads := make([]int64, m)
	keys := make([]int32, m)
	for p, id := range ids {
		pos[id] = p
		keys[p] = int32(id)
		loads[p] = mm.load(id)
		for obj, c := range mm.counts[id] {
			if c > 0 {
				lists[p] = append(lists[p], Hit{Obj: int32(obj), C: c})
			}
		}
	}
	in = NewHitInstance(mm.s, mm.numObjects())
	in.Reinit(mm.k, lists, loads)
	in.SetWeights(mm.w)
	if live {
		in.EnableMoves(keys, func(i, j int) {
			a, b := ids[i], ids[j]
			ids[i], ids[j] = b, a
			pos[a], pos[b] = j, i
		})
	}
	return in, ids, pos
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
		in.Reset()
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
// instance — interleaved with full searches, so moves hit prepared,
// residual-tracked state — and checks after every move that the
// patched layout and its search results are byte-identical to a fresh
// canonical rebuild.
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
				live, _, pos := mm.build(true)
				for mv := 0; mv < 12; mv++ {
					obj, fromID, toID := mm.randomMove(rng, tc.aggregate)
					live.ApplyMove(obj, pos[fromID], pos[toID])
					fresh, _, _ := mm.build(false)
					tag := tc.name
					assertSameLayout(t, tag, live, fresh)
					if mv%3 == 0 { // search on some states: residual machinery gets built and re-patched
						searchBoth(t, tag, live, fresh)
					}
				}
			}
		})
	}
}

// TestRevertMoveRestores checks the ApplyMove/RevertMove round trip is
// the identity on the full layout, including after searches prepared
// the residual baselines.
func TestRevertMoveRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		mm := randomModel(rng, 7, 25, 3, 2, 3, trial%2 == 0, false)
		live, _, pos := mm.build(true)
		if trial%3 == 0 {
			seed := Greedy(live)
			live.Reset()
			BranchAndBound(live, seed, NewBudget(0), 1, BoundResidual)
		}
		snapshot, _, _ := mm.build(false)
		obj, fromID, toID := mm.randomMove(rng, trial%2 == 0)
		nf, nt := live.ApplyMove(obj, pos[fromID], pos[toID])
		if nf != pos[fromID] || nt != pos[toID] {
			t.Fatalf("returned positions (%d,%d) disagree with the onSwap mirror (%d,%d)",
				nf, nt, pos[fromID], pos[toID])
		}
		live.RevertMove(obj, nf, nt)
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
	in, _, _ := mm.build(false)
	seed := Greedy(in)
	in.Reset()
	res := BranchAndBound(in, seed, NewBudget(0), 1, BoundResidual)
	if rv := Revalidate(in, res.Sel); rv != res.Failed {
		t.Fatalf("Revalidate(witness) = %d, want the witness damage %d", rv, res.Failed)
	}
	// Counters clean: a second identical search reproduces the result.
	seed2 := Greedy(in)
	in.Reset()
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
	in, _, _ := mm.build(false)
	seed := Greedy(in)
	in.Reset()
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
		live, _, pos := mm.build(true)
		type applied struct{ obj, nf, nt, fromID, toID int }
		var undoable []applied
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for _, op := range ops {
			if op&1 == 1 && len(undoable) > 0 {
				// Revert the most recent un-reverted move.
				a := undoable[len(undoable)-1]
				undoable = undoable[:len(undoable)-1]
				live.RevertMove(a.obj, pos[a.fromID], pos[a.toID])
				mm.counts[a.fromID][a.obj]++
				mm.counts[a.toID][a.obj]--
			} else {
				obj, fromID, toID := mm.randomMove(rng, aggregate)
				nf, nt := live.ApplyMove(obj, pos[fromID], pos[toID])
				undoable = append(undoable, applied{obj, nf, nt, fromID, toID})
			}
			fresh, _, _ := mm.build(false)
			assertSameLayout(t, "fuzz", live, fresh)
			if op&0x40 != 0 { // occasionally run the full search comparison
				searchBoth(t, "fuzz", live, fresh)
			}
		}
	})
}
