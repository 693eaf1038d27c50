package adversary

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/placement"
	"repro/internal/topology"
)

// probeBatch derives count deterministic valid moves on pl (none
// applied; ProbeMoves reverts each, so they need not compose).
func probeBatch(rng *rand.Rand, pl *placement.Placement, count int) []Move {
	seen := make(map[Move]bool)
	var moves []Move
	for len(moves) < count {
		obj, from, to := randomSessionMove(rng, pl)
		m := Move{Obj: obj, From: from, To: to}
		if seen[m] {
			continue
		}
		seen[m] = true
		moves = append(moves, m)
	}
	return moves
}

// TestForkIsolation pins the fork contract: moves driven through a
// child never corrupt the parent. The child walks a random move chain
// (checked against a cold engine at every step); afterwards the parent
// still evaluates its original placement to the original damage, and a
// parent move chain still matches cold engines.
func TestForkIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	topo, err := topology.UniformTree(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl := randomPlacement(rng, 12, 3, 24)
	const s, d = 2, 2
	se, err := NewDomainSession(pl, topo, topology.Leaf, s, d, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := se.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}

	child := se.Fork()
	cur := pl.Clone()
	for mv := 0; mv < 6; mv++ {
		obj, from, to := randomSessionMove(rng, cur)
		if err := cur.MoveReplica(obj, from, to); err != nil {
			t.Fatal(err)
		}
		got, err := child.Move(obj, from, to)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := DomainWorstCaseAtWith(cur, topo, topology.Leaf, s, d, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Failed != cold.Failed {
			t.Fatalf("child move %d: damage %d, cold engine %d", mv, got.Failed, cold.Failed)
		}
	}

	// The parent's placement and instance are untouched by the child.
	after, err := se.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.Failed != base.Failed {
		t.Fatalf("parent damage drifted after child moves: %d, want %d", after.Failed, base.Failed)
	}
	if !reflect.DeepEqual(se.Placement(), pl) {
		t.Fatal("parent placement mutated by child moves")
	}
	// And the parent still moves correctly on its own.
	parentCur := pl.Clone()
	for mv := 0; mv < 4; mv++ {
		obj, from, to := randomSessionMove(rng, parentCur)
		if err := parentCur.MoveReplica(obj, from, to); err != nil {
			t.Fatal(err)
		}
		got, err := se.Move(obj, from, to)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := DomainWorstCaseAtWith(parentCur, topo, topology.Leaf, s, d, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Failed != cold.Failed {
			t.Fatalf("parent move %d after fork: damage %d, cold engine %d", mv, got.Failed, cold.Failed)
		}
	}
}

// TestProbeMovesDeterministic pins the batch contract: ProbeMoves at
// every worker count returns results byte-identical to the serial
// probe scan — damage, witness, exactness, and the visited-state
// counts — and leaves the session at its base state (the next
// Evaluate answers the base placement).
func TestProbeMovesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	topo, err := topology.UniformTree(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl := randomPlacement(rng, 12, 3, 24)
	const s, d = 2, 2
	moves := probeBatch(rng, pl, 24)
	// An invalid move must report Failed = -1 in its slot without
	// disturbing its neighbors.
	moves[7] = Move{Obj: 0, From: moves[7].From, To: moves[7].To}
	for pl.Objects[0].Get(moves[7].From) { // ensure From really lacks a replica
		moves[7].From = (moves[7].From + 1) % pl.N
	}

	var want []SessionResult
	var wantStats SessionStats
	for _, workers := range []int{1, 2, 8} {
		se, err := NewDomainSession(pl, topo, topology.Leaf, s, d, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		base, err := se.Evaluate(nil)
		if err != nil {
			t.Fatal(err)
		}
		got := se.ProbeMoves(moves, workers)
		if want == nil {
			want = got
			wantStats = se.Stats()
			wantStats.Forks = 0
			// Sanity: every valid probe matches a cold engine.
			for i, m := range moves {
				cur := pl.Clone()
				if err := cur.MoveReplica(m.Obj, m.From, m.To); err != nil {
					if got[i].Failed != -1 {
						t.Fatalf("invalid move %d reported %d, want -1", i, got[i].Failed)
					}
					continue
				}
				cold, err := DomainWorstCaseAtWith(cur, topo, topology.Leaf, s, d, SearchOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if got[i].Failed != cold.Failed {
					t.Fatalf("probe %d: damage %d, cold engine %d", i, got[i].Failed, cold.Failed)
				}
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: probe results differ from serial\n got %+v\nwant %+v", workers, got, want)
		}
		st := se.Stats()
		st.Forks = 0 // fork count legitimately varies with workers
		if st != wantStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, st, wantStats)
		}
		after, err := se.Evaluate(nil)
		if err != nil {
			t.Fatal(err)
		}
		if after.Failed != base.Failed || !reflect.DeepEqual(after.Nodes, base.Nodes) {
			t.Fatalf("workers=%d: base state disturbed: %+v, want %+v", workers, after, base)
		}
	}
}

// TestSessionMemoEviction pins the capped-memo contract: a session
// whose memo cap forces evictions still answers every re-evaluation
// correctly (an evicted placement re-searches), and reports the
// evictions in its stats.
func TestSessionMemoEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pl := randomPlacement(rng, 10, 3, 20)
	const s, k = 2, 3
	// Cap far below the chain's distinct placements: one entry per
	// shard at most.
	se, err := NewNodeSession(pl, s, k, SearchOpts{MemoCap: memoShards})
	if err != nil {
		t.Fatal(err)
	}
	cur := pl.Clone()
	type step struct{ obj, from, to, damage int }
	var chain []step
	for mv := 0; mv < 40; mv++ {
		obj, from, to := randomSessionMove(rng, cur)
		if err := cur.MoveReplica(obj, from, to); err != nil {
			t.Fatal(err)
		}
		got, err := se.Move(obj, from, to)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, step{obj, from, to, got.Failed})
	}
	if st := se.Stats(); st.MemoEvicted == 0 {
		t.Fatalf("40 distinct placements under MemoCap=%d evicted nothing: %+v", memoShards, st)
	}
	// Walk the chain backwards: every revert's damage must match what
	// the forward pass measured, evicted or not.
	for i := len(chain) - 1; i > 0; i-- {
		st := chain[i]
		got, err := se.Move(st.obj, st.to, st.from)
		if err != nil {
			t.Fatal(err)
		}
		if got.Failed != chain[i-1].damage {
			t.Fatalf("revert %d: damage %d, want %d", i, got.Failed, chain[i-1].damage)
		}
		if !got.Exact {
			t.Fatalf("revert %d not exact", i)
		}
	}
}

// TestMoveIntoScratchAllocs pins the satellite's allocation contract:
// once a probe pair (apply + revert) is answered by the memo, driving
// it through MoveInto with reused result scratch allocates nothing.
func TestMoveIntoScratchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	topo, err := topology.UniformTree(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl := randomPlacement(rng, 12, 3, 24)
	se, err := NewDomainSession(pl, topo, topology.Leaf, 2, 2, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Evaluate(nil); err != nil {
		t.Fatal(err)
	}
	m := Move{}
	m.Obj, m.From, m.To = randomSessionMove(rng, pl)
	var dst SessionResult
	// Warm up: both placements of the pair land in the memo and the
	// scratch slices grow to size.
	for i := 0; i < 3; i++ {
		if err := se.MoveInto(&dst, m.Obj, m.From, m.To); err != nil {
			t.Fatal(err)
		}
		if err := se.MoveInto(&dst, m.Obj, m.To, m.From); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := se.MoveInto(&dst, m.Obj, m.From, m.To); err != nil {
			t.Fatal(err)
		}
		if err := se.MoveInto(&dst, m.Obj, m.To, m.From); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("memo-hit probe pair allocated %.1f times, want 0", allocs)
	}
}
