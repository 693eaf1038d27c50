package adversary

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/placement"
	"repro/internal/topology"
)

// placementString renders pl's replica sets canonically: equal strings
// mean equal placements.
func placementString(pl *placement.Placement) string {
	var sb strings.Builder
	for _, o := range pl.Objects {
		fmt.Fprint(&sb, o.Members(nil), ";")
	}
	return sb.String()
}

// checkKey fails unless the session's move-maintained key equals a cold
// recompute and the session's placement equals the caller's shadow.
func checkKey(t *testing.T, label string, se *Session, shadow *placement.Placement) {
	t.Helper()
	if got, want := placementString(se.pl), placementString(shadow); got != want {
		t.Fatalf("%s: session placement %s, want %s", label, got, want)
	}
	if want := placement.Signature(se.pl, se.opts.ObjWeights); se.key != want {
		t.Fatalf("%s: key %+v, cold recompute %+v", label, se.key, want)
	}
}

// TestSessionKeyTracksMoves pins the memo-key contract: the session's
// key, updated per move in O(1), always equals a cold recompute of its
// placement's key through every path that changes the placement (Move,
// MoveInto, Evaluate's single-move and rebuild paths, serial and
// fanned ProbeMoves); the pooled probe forks hold the session's key
// after a fanned batch and keep it across later session moves until
// the next; a move and its revert restore the exact key; two move
// orders reaching one placement give one key; distinct placements on a
// long walk never share a key; and every memo answer equals a cold
// engine's.
func TestSessionKeyTracksMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	topo, err := topology.UniformTree(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	const s, d = 2, 2
	for _, weighted := range []bool{false, true} {
		pl := randomPlacement(rng, 12, 3, 24)
		var w []int64
		if weighted {
			w = randObjWeights(rng, pl.B())
		}
		opts := SearchOpts{ObjWeights: w}
		se, err := NewDomainSession(pl, topo, topology.Leaf, s, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		cur := pl.Clone()
		label := fmt.Sprintf("weighted=%v", weighted)
		checkKey(t, label+" new", se, cur)
		var dst SessionResult
		for step := 0; step < 60; step++ {
			obj, from, to := randomSessionMove(rng, cur)
			var res SessionResult
			var path string
			switch step % 6 {
			case 0:
				path = "Move"
				if res, err = se.Move(obj, from, to); err != nil {
					t.Fatal(err)
				}
			case 1:
				path = "MoveInto"
				if err = se.MoveInto(&dst, obj, from, to); err != nil {
					t.Fatal(err)
				}
				res = dst
			case 2:
				path = "Evaluate single move"
				next := cur.Clone()
				if err := next.MoveReplica(obj, from, to); err != nil {
					t.Fatal(err)
				}
				if res, err = se.Evaluate(next); err != nil {
					t.Fatal(err)
				}
			case 3:
				path = "Evaluate rebuild"
				next := cur.Clone()
				if err := next.MoveReplica(obj, from, to); err != nil {
					t.Fatal(err)
				}
				obj2, from2, to2 := randomSessionMove(rng, next)
				for obj2 == obj {
					obj2, from2, to2 = randomSessionMove(rng, next)
				}
				if err := next.MoveReplica(obj2, from2, to2); err != nil {
					t.Fatal(err)
				}
				if err := cur.MoveReplica(obj2, from2, to2); err != nil {
					t.Fatal(err)
				}
				if res, err = se.Evaluate(next); err != nil {
					t.Fatal(err)
				}
			case 4, 5:
				// A probe batch leaves the placement and key as they were.
				workers := 1 + 3*(step%2)
				path = fmt.Sprintf("ProbeMoves(workers=%d)", workers)
				before := se.key
				probes := se.ProbeMoves(probeBatch(rng, cur, 6), workers)
				checkKey(t, label+" "+path, se, cur)
				if se.key != before {
					t.Fatalf("%s %s: key moved across a probe batch", label, path)
				}
				for i, pr := range probes {
					if !pr.Exact {
						t.Fatalf("%s %s: probe %d inexact", label, path, i)
					}
				}
				// A fanned batch leaves its pooled forks level with the
				// session, keys included.
				if workers > 1 {
					for i, ch := range se.pool {
						checkKey(t, fmt.Sprintf("%s %s pooled fork %d", label, path, i), ch, cur)
					}
				}
				// Then move the session: its key tracks the move (checked
				// below) while the forks' keys stay put until the next
				// fanned batch replays it.
				if res, err = se.Move(obj, from, to); err != nil {
					t.Fatal(err)
				}
				if workers > 1 {
					for i, ch := range se.pool {
						checkKey(t, fmt.Sprintf("%s pooled fork %d after a session Move", label, i), ch, cur)
					}
				}
				path += " then Move"
			}
			if err := cur.MoveReplica(obj, from, to); err != nil {
				t.Fatal(err)
			}
			checkKey(t, label+" "+path, se, cur)
			cold, err := DomainWorstCaseAtWith(cur, topo, topology.Leaf, s, d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != cold.Failed {
				t.Fatalf("%s %s: damage %d (memo %v), cold engine %d", label, path, res.Failed, res.Memo, cold.Failed)
			}
		}
	}

	t.Run("revert and order", func(t *testing.T) {
		pl := randomPlacement(rng, 10, 3, 20)
		a, b := pl.Clone(), pl.Clone()
		sa, err := NewNodeSession(a, 2, 3, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sb, err := NewNodeSession(b, 2, 3, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			// Apply then revert: the exact key comes back.
			before := sa.key
			obj, from, to := randomSessionMove(rng, a)
			if _, err := sa.Move(obj, from, to); err != nil {
				t.Fatal(err)
			}
			if sa.key == before {
				t.Fatalf("trial %d: a move left the key unchanged", trial)
			}
			if _, err := sa.Move(obj, to, from); err != nil {
				t.Fatal(err)
			}
			if sa.key != before {
				t.Fatalf("trial %d: apply + revert changed the key", trial)
			}
			// Two moves in either order reach one placement and one key.
			o1, f1, t1 := randomSessionMove(rng, a)
			o2, f2, t2 := randomSessionMove(rng, a)
			for o2 == o1 {
				o2, f2, t2 = randomSessionMove(rng, a)
			}
			for _, m := range [][3]int{{o1, f1, t1}, {o2, f2, t2}} {
				if _, err := sa.Move(m[0], m[1], m[2]); err != nil {
					t.Fatal(err)
				}
				if err := a.MoveReplica(m[0], m[1], m[2]); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range [][3]int{{o2, f2, t2}, {o1, f1, t1}} {
				if _, err := sb.Move(m[0], m[1], m[2]); err != nil {
					t.Fatal(err)
				}
				if err := b.MoveReplica(m[0], m[1], m[2]); err != nil {
					t.Fatal(err)
				}
			}
			if sa.key != sb.key {
				t.Fatalf("trial %d: move orders disagree on the key of one placement", trial)
			}
		}
	})

	t.Run("walk", func(t *testing.T) {
		pl := randomPlacement(rng, 10, 3, 20)
		const s, k = 2, 3
		se, err := NewNodeSession(pl, s, k, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		cur := pl.Clone()
		seen := map[placement.Sig]string{se.key: placementString(cur)}
		var last [3]int
		memoHits := 0
		for step := 0; step < 2000; step++ {
			obj, from, to := randomSessionMove(rng, cur)
			if step > 0 && rng.Intn(3) == 0 { // revisit: undo the last move
				obj, from, to = last[0], last[2], last[1]
			}
			if err := cur.MoveReplica(obj, from, to); err != nil {
				t.Fatal(err)
			}
			last = [3]int{obj, from, to}
			res, err := se.Move(obj, from, to)
			if err != nil {
				t.Fatal(err)
			}
			str := placementString(cur)
			if prev, ok := seen[se.key]; ok && prev != str {
				t.Fatalf("step %d: distinct placements share key %+v:\n%s\n%s", step, se.key, prev, str)
			}
			seen[se.key] = str
			if res.Memo {
				memoHits++
				cold, err := WorstCaseWith(cur, s, k, SearchOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != cold.Failed {
					t.Fatalf("step %d: memo answered %d, cold engine %d", step, res.Failed, cold.Failed)
				}
			}
		}
		checkKey(t, "walk end", se, cur)
		if memoHits == 0 {
			t.Fatal("the walk never hit the memo")
		}
	})
}
