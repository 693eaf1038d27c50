package adversary

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/combin"
	"repro/internal/placement"
	"repro/internal/topology"
)

// damageOf replays an attack independently of every search path: the
// (weighted) damage of failing exactly the given nodes.
func damageOf(pl *placement.Placement, nodes []int, s int, w []int64) int {
	failed := combin.NewBitsetFrom(pl.N, nodes)
	total := 0
	for obj := 0; obj < pl.B(); obj++ {
		if pl.Objects[obj].IntersectCount(failed) >= s {
			if w != nil {
				total += int(w[obj])
			} else {
				total++
			}
		}
	}
	return total
}

// randomSessionMove picks a random valid replica move on pl (without
// applying it).
func randomSessionMove(rng *rand.Rand, pl *placement.Placement) (obj, from, to int) {
	for {
		obj = rng.Intn(pl.B())
		members := pl.ReplicaNodes(obj)
		from = members[rng.Intn(len(members))]
		to = rng.Intn(pl.N)
		if !pl.Objects[obj].Get(to) {
			return obj, from, to
		}
	}
}

// TestSessionNodeMatchesEngines drives random move chains through a
// node-level session and checks every incremental answer against the
// engines rebuilding from scratch: exact damage equals WorstCaseWith
// and ExhaustiveWith, greedy stays a lower bound, and the witness
// replays to the claimed damage.
func TestSessionNodeMatchesEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 4; trial++ {
		n, r, b, s, k := 10+rng.Intn(3), 3, 20+rng.Intn(15), 2, 3
		pl := randomPlacement(rng, n, r, b)
		se, err := NewNodeSession(pl, s, k, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		cur := pl.Clone()
		for mv := 0; mv < 8; mv++ {
			obj, from, to := randomSessionMove(rng, cur)
			if err := cur.MoveReplica(obj, from, to); err != nil {
				t.Fatal(err)
			}
			got, err := se.Move(obj, from, to)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Exact {
				t.Fatalf("unbudgeted session evaluation not exact")
			}
			if replay := damageOf(cur, got.Nodes, s, nil); replay != got.Failed {
				t.Fatalf("witness %v replays to %d, session claims %d", got.Nodes, replay, got.Failed)
			}
			cold, err := WorstCaseWith(cur, s, k, SearchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Failed != cold.Failed {
				t.Fatalf("move %d: session damage %d, cold engine %d", mv, got.Failed, cold.Failed)
			}
			exh, err := ExhaustiveWith(cur, s, k, SearchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Failed != exh.Failed {
				t.Fatalf("move %d: session damage %d, exhaustive %d", mv, got.Failed, exh.Failed)
			}
			gr, err := GreedyWith(cur, s, k, SearchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if gr.Failed > got.Failed {
				t.Fatalf("move %d: greedy %d exceeds session optimum %d", mv, gr.Failed, got.Failed)
			}
		}
	}
}

// TestSessionDomainMatchesEngines is the domain-mode differential:
// move chains through sessions at the rack and zone levels, unweighted
// and weighted, against the DomainWorstCaseAtWith and
// DomainExhaustiveAtWith engines on the moved placement.
func TestSessionDomainMatchesEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 4; trial++ {
		n, r, b, s, d := 12, 3, 25+rng.Intn(15), 2, 2
		pl := randomPlacement(rng, n, r, b)
		topo, err := topology.UniformHierarchy(n, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		var w []int64
		if trial%2 == 1 {
			w = make([]int64, b)
			for i := range w {
				w[i] = int64(1 + rng.Intn(5))
			}
		}
		for _, level := range []int{topology.Leaf, 0} {
			se, err := NewDomainSession(pl, topo, level, s, d, SearchOpts{ObjWeights: w})
			if err != nil {
				t.Fatal(err)
			}
			cur := pl.Clone()
			for mv := 0; mv < 8; mv++ {
				obj, from, to := randomSessionMove(rng, cur)
				if err := cur.MoveReplica(obj, from, to); err != nil {
					t.Fatal(err)
				}
				got, err := se.Move(obj, from, to)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Exact {
					t.Fatalf("unbudgeted session evaluation not exact")
				}
				if replay := damageOf(cur, got.Nodes, s, w); replay != got.Failed {
					t.Fatalf("level %d witness domains %v replay to %d, session claims %d",
						level, got.Domains, replay, got.Failed)
				}
				cold, err := DomainWorstCaseAtWith(cur, topo, level, s, d, SearchOpts{ObjWeights: w})
				if err != nil {
					t.Fatal(err)
				}
				if got.Failed != cold.Failed {
					t.Fatalf("level %d move %d: session damage %d, cold engine %d", level, mv, got.Failed, cold.Failed)
				}
				exh, err := DomainExhaustiveAtWith(cur, topo, level, s, d, SearchOpts{ObjWeights: w})
				if err != nil {
					t.Fatal(err)
				}
				if got.Failed != exh.Failed {
					t.Fatalf("level %d move %d: session damage %d, exhaustive %d", level, mv, got.Failed, exh.Failed)
				}
			}
		}
	}
}

// TestColdSessionMatchesEngine pins the cold half of the session
// contract: the first Evaluate(nil) of a fresh session returns the
// engine's damage, witness and exactness. Sparse placements with half
// the object weights zero leave units that hold replicas but carry no
// weighted load; the engines and the session must place those alike
// (among the idle units, by id), or the tied witnesses part. The
// minimal case is such a node: node 5 holds only the weightless
// object 2.
func TestColdSessionMatchesEngine(t *testing.T) {
	sparse := func(rng *rand.Rand) (*placement.Placement, []int64) {
		n, b := 8+rng.Intn(6), 2+rng.Intn(4)
		pl := randomPlacement(rng, n, 2, b)
		w := make([]int64, b)
		for obj := range w {
			if rng.Intn(2) == 0 {
				w[obj] = int64(1 + rng.Intn(4))
			}
		}
		return pl, w
	}
	coldNode := func(t *testing.T, tag string, pl *placement.Placement, s, k int, w []int64) {
		t.Helper()
		opts := SearchOpts{ObjWeights: w}
		want, err := WorstCaseWith(pl, s, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		se, err := NewNodeSession(pl, s, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := se.Evaluate(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Failed != want.Failed || got.Exact != want.Exact || !reflect.DeepEqual(got.Nodes, want.Nodes) {
			t.Fatalf("%s (s=%d k=%d w=%v): session (failed=%d nodes=%v exact=%v), engine (failed=%d nodes=%v exact=%v)",
				tag, s, k, w, got.Failed, got.Nodes, got.Exact, want.Failed, want.Nodes, want.Exact)
		}
	}
	t.Run("minimal", func(t *testing.T) {
		pl := placement.NewPlacement(6, 2)
		for _, nodes := range [][]int{{0, 1}, {0, 1}, {2, 5}, {1, 2}} {
			if err := pl.Add(nodes); err != nil {
				t.Fatal(err)
			}
		}
		coldNode(t, "minimal", pl, 2, 4, []int64{3, 3, 0, 1})
	})
	t.Run("node", func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		for trial := 0; trial < 300; trial++ {
			pl, w := sparse(rng)
			coldNode(t, fmt.Sprintf("trial %d", trial), pl, 1+rng.Intn(2), 1+rng.Intn(pl.N-1), w)
		}
	})
	t.Run("domain", func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 300; trial++ {
			pl, w := sparse(rng)
			topo, err := topology.Uniform(pl.N, 2+rng.Intn(pl.N-1))
			if err != nil {
				t.Fatal(err)
			}
			s, d := 1+rng.Intn(2), 1+rng.Intn(topo.NumDomains())
			opts := SearchOpts{ObjWeights: w}
			want, err := DomainWorstCaseAtWith(pl, topo, topology.Leaf, s, d, opts)
			if err != nil {
				t.Fatal(err)
			}
			se, err := NewDomainSession(pl, topo, topology.Leaf, s, d, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := se.Evaluate(nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Failed != want.Failed || got.Exact != want.Exact ||
				!reflect.DeepEqual(got.Domains, want.Domains) || !reflect.DeepEqual(got.Nodes, want.Nodes) {
				t.Fatalf("trial %d (D=%d s=%d d=%d w=%v): session (failed=%d domains=%v exact=%v), engine (failed=%d domains=%v exact=%v)",
					trial, topo.NumDomains(), s, d, w, got.Failed, got.Domains, got.Exact, want.Failed, want.Domains, want.Exact)
			}
		}
	})
}

// TestSessionEvaluatePaths checks Evaluate picks the right
// implementation path — memo for a placement already seen, a CSR delta
// for a one-move diff, a rebuild for anything larger — and that every
// path returns the cold-engine damage.
func TestSessionEvaluatePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pl := randomPlacement(rng, 12, 3, 30)
	const s, k = 2, 3
	se, err := NewNodeSession(pl, s, k, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}

	base, err := se.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same placement again: answered by the memo.
	again, err := se.Evaluate(pl)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Memo || again.Failed != base.Failed {
		t.Fatalf("re-evaluating the same placement: memo=%v failed=%d, want memo=true failed=%d",
			again.Memo, again.Failed, base.Failed)
	}

	// One-move diff: the delta path, no rebuild.
	moved := pl.Clone()
	obj, from, to := randomSessionMove(rng, moved)
	if err := moved.MoveReplica(obj, from, to); err != nil {
		t.Fatal(err)
	}
	preRebuilds := se.Stats().Rebuilds
	one, err := se.Evaluate(moved)
	if err != nil {
		t.Fatal(err)
	}
	if se.Stats().Rebuilds != preRebuilds {
		t.Fatalf("one-move diff triggered a rebuild")
	}
	if se.Stats().Moves == 0 {
		t.Fatalf("one-move diff did not ride the CSR delta path")
	}
	cold, err := WorstCaseWith(moved, s, k, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if one.Failed != cold.Failed {
		t.Fatalf("delta path damage %d, cold engine %d", one.Failed, cold.Failed)
	}

	// Reverting to the original placement: a delta move answered by the
	// memo (the revert half of probe-and-revert).
	back, err := se.Evaluate(pl)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Memo || back.Failed != base.Failed {
		t.Fatalf("revert evaluation: memo=%v failed=%d, want memo=true failed=%d", back.Memo, back.Failed, base.Failed)
	}

	// A multi-move diff: full rebuild, still the cold damage.
	far := randomPlacement(rng, 12, 3, 30)
	rebuilt, err := se.Evaluate(far)
	if err != nil {
		t.Fatal(err)
	}
	if se.Stats().Rebuilds == preRebuilds {
		t.Fatalf("multi-move diff did not rebuild")
	}
	coldFar, err := WorstCaseWith(far, s, k, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Failed != coldFar.Failed {
		t.Fatalf("rebuild path damage %d, cold engine %d", rebuilt.Failed, coldFar.Failed)
	}
}

// TestSessionNoopMove pins the same-domain fast path: a move that
// stays inside one rack cannot change the rack-level worst case, and
// the session answers it without touching the instance.
func TestSessionNoopMove(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	// 4 nodes per rack so same-rack moves exist.
	pl := randomPlacement(rng, 12, 2, 30)
	topo, err := topology.UniformHierarchy(12, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewDomainSession(pl, topo, topology.Leaf, 2, 2, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := se.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := pl.Clone()
	var noop bool
	for try := 0; try < 200 && !noop; try++ {
		obj, from, to := randomSessionMove(rng, cur)
		if topo.DomainOf(from) != topo.DomainOf(to) {
			continue
		}
		if err := cur.MoveReplica(obj, from, to); err != nil {
			t.Fatal(err)
		}
		got, err := se.Move(obj, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if got.Failed != base.Failed || !got.Exact {
			t.Fatalf("same-rack move changed the reported worst case: %d → %d", base.Failed, got.Failed)
		}
		cold, err := DomainWorstCaseAtWith(cur, topo, topology.Leaf, 2, 2, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Failed != cold.Failed {
			t.Fatalf("noop path damage %d, cold engine %d", got.Failed, cold.Failed)
		}
		noop = true
	}
	if !noop {
		t.Skip("no same-rack move found")
	}
	if se.Stats().NoopMoves == 0 {
		t.Fatalf("same-rack move did not take the noop fast path")
	}
}

// TestSessionConcurrentEvaluators hammers one memoizing session from
// concurrent goroutines (the -race coverage the CI run relies on):
// every evaluation must still report the cold-engine damage for the
// placement it evaluated.
func TestSessionConcurrentEvaluators(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, r, b, s, k = 12, 3, 30, 2, 3
	base := randomPlacement(rng, n, r, b)
	// A small pool of placements, each one move apart from base, with
	// known cold damages.
	const pool = 6
	placements := make([]*placement.Placement, pool)
	want := make([]int, pool)
	for i := range placements {
		p := base.Clone()
		if i > 0 {
			obj, from, to := randomSessionMove(rng, p)
			if err := p.MoveReplica(obj, from, to); err != nil {
				t.Fatal(err)
			}
		}
		cold, err := WorstCaseWith(p, s, k, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		placements[i], want[i] = p, cold.Failed
	}
	se, err := NewNodeSession(base, s, k, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				pi := (g + i) % pool
				res, err := se.Evaluate(placements[pi])
				if err != nil {
					errs <- err
					return
				}
				if res.Failed != want[pi] {
					errs <- errMismatch{got: res.Failed, want: want[pi]}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := se.Stats(); st.MemoHits == 0 {
		t.Fatalf("concurrent revisits produced no memo hits: %+v", st)
	}
}

type errMismatch struct{ got, want int }

func (e errMismatch) Error() string {
	return "concurrent evaluation damage mismatch"
}

// TestConstrainedPairAfterMoves extends the warm≡cold coverage to the
// constrained engines: after arbitrary move chains the budgetless
// branch-and-bound pair must still agree with exhaustive enumeration.
func TestConstrainedPairAfterMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 3; trial++ {
		n, r, b := 10, 3, 20+rng.Intn(10)
		pl := randomPlacement(rng, n, r, b)
		topo, err := topology.Uniform(n, 5)
		if err != nil {
			t.Fatal(err)
		}
		for mv := 0; mv < 5; mv++ {
			obj, from, to := randomSessionMove(rng, pl)
			if err := pl.MoveReplica(obj, from, to); err != nil {
				t.Fatal(err)
			}
		}
		s, k, d := 2, 3, 2
		bb, err := ConstrainedWorstCaseAtWith(pl, topo, topology.Leaf, s, k, d, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		exh, err := ConstrainedExhaustiveAtWith(pl, topo, topology.Leaf, s, k, d, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if bb.Failed != exh.Failed || !bb.Exact {
			t.Fatalf("constrained pair diverged after moves: b&b %d (exact=%v), exhaustive %d",
				bb.Failed, bb.Exact, exh.Failed)
		}
	}
}

// TestSessionMoveRangeError pins the typed-error contract of
// Session.Move: an out-of-range object or node index returns a
// *placement.RangeError — never a panic from the CSR patch layer — and
// leaves the session fully usable: the next evaluation still matches a
// cold engine.
func TestSessionMoveRangeError(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	n, r, b, s := 12, 3, 24, 2
	pl := randomPlacement(rng, n, r, b)
	topo, err := topology.Uniform(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	sessions := map[string]*Session{}
	if se, err := NewNodeSession(pl, s, 3, SearchOpts{}); err != nil {
		t.Fatal(err)
	} else {
		sessions["node"] = se
	}
	if se, err := NewDomainSession(pl, topo, topology.Leaf, s, 1, SearchOpts{}); err != nil {
		t.Fatal(err)
	} else {
		sessions["domain"] = se
	}
	obj0 := pl.ReplicaNodes(0)
	for name, se := range sessions {
		t.Run(name, func(t *testing.T) {
			bad := []struct {
				label         string
				obj, from, to int
				kind          string
				index         int
			}{
				{"object-negative", -1, obj0[0], n - 1, "object", -1},
				{"object-high", b, obj0[0], n - 1, "object", b},
				{"from-negative", 0, -1, n - 1, "node", -1},
				{"to-high", 0, obj0[0], n, "node", n},
			}
			for _, tc := range bad {
				_, err := se.Move(tc.obj, tc.from, tc.to)
				var re *placement.RangeError
				if !errors.As(err, &re) {
					t.Fatalf("%s: Move(%d, %d, %d) = %v, want *placement.RangeError",
						tc.label, tc.obj, tc.from, tc.to, err)
				}
				if re.Kind != tc.kind || re.Index != tc.index {
					t.Errorf("%s: RangeError{%s, %d}, want {%s, %d}",
						tc.label, re.Kind, re.Index, tc.kind, tc.index)
				}
			}
			// The failed moves left the session consistent: its answer
			// still matches a cold engine on the unchanged placement.
			res, err := se.Evaluate(nil)
			if err != nil {
				t.Fatal(err)
			}
			var want int
			if name == "node" {
				cold, err := ExhaustiveWith(pl, s, 3, SearchOpts{})
				if err != nil {
					t.Fatal(err)
				}
				want = cold.Failed
			} else {
				cold, err := DomainExhaustiveAtWith(pl, topo, topology.Leaf, s, 1, SearchOpts{})
				if err != nil {
					t.Fatal(err)
				}
				want = cold.Failed
			}
			if !res.Exact || res.Failed != want {
				t.Errorf("after range errors: session says %d (exact=%v), cold engine %d",
					res.Failed, res.Exact, want)
			}
		})
	}
}
