package adversary

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// TestForkIsolation pins the contract of the pooled probe forks that
// ProbeMoves fans its batches over. A fork's probes never reach the
// session: after every fanned batch the session keeps its placement,
// memo key and damage, and each fork is level with it again (its
// probes reverted), key included. The session's moves reach a fork
// only through the next batch's replay: after a session move chain,
// each checked against a cold engine, the forks still hold the
// pre-chain placement and key, and the next batch's probes match cold
// engines on the moved placement. Every fork shares the session's
// memo, so the session's own move to a placement a fork probed is a
// memo hit.
func TestForkIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	topo, err := topology.UniformTree(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl := randomPlacement(rng, 12, 3, 24)
	const s, d, workers = 2, 2, 3
	se, err := NewDomainSession(pl, topo, topology.Leaf, s, d, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := se.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := pl.Clone()
	for round := 0; round < 4; round++ {
		label := fmt.Sprintf("round %d", round)
		moves := probeBatch(rng, cur, 8)
		probes := se.ProbeMoves(moves, workers)
		for i, m := range moves {
			next := cur.Clone()
			if err := next.MoveReplica(m.Obj, m.From, m.To); err != nil {
				t.Fatal(err)
			}
			cold, err := DomainWorstCaseAtWith(next, topo, topology.Leaf, s, d, SearchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if probes[i].Failed != cold.Failed {
				t.Fatalf("%s: probe %d damage %d, cold engine %d", label, i, probes[i].Failed, cold.Failed)
			}
		}

		// The session is untouched by its forks' probes, and the forks
		// are level with it.
		checkKey(t, label+" session after the batch", se, cur)
		after, err := se.Evaluate(nil)
		if err != nil {
			t.Fatal(err)
		}
		if after.Failed != base.Failed {
			t.Fatalf("%s: session damage %d after the batch, want %d", label, after.Failed, base.Failed)
		}
		if len(se.pool) != workers {
			t.Fatalf("%s: %d pooled forks, want %d", label, len(se.pool), workers)
		}
		for i, ch := range se.pool {
			if ch.memo != se.memo {
				t.Fatalf("%s: fork %d keeps a memo of its own", label, i)
			}
			checkKey(t, fmt.Sprintf("%s fork %d after the batch", label, i), ch, cur)
		}

		// The shared memo: the session moving to a placement a fork
		// probed is answered from the memo (a move across domains, so
		// the instance really changes).
		mi := slices.IndexFunc(moves, func(m Move) bool { return se.topo.DomainOf(m.From) != se.topo.DomainOf(m.To) })
		if mi < 0 {
			t.Fatalf("%s: no probe crosses domains", label)
		}
		m := moves[mi]
		hits := se.Stats().MemoHits
		got, err := se.Move(m.Obj, m.From, m.To)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Memo || se.Stats().MemoHits != hits+1 || got.Failed != probes[mi].Failed {
			t.Fatalf("%s: session move to a probed placement: %+v (memo hits %d -> %d), probe %+v",
				label, got, hits, se.Stats().MemoHits, probes[mi])
		}
		before := cur.Clone()
		if err := cur.MoveReplica(m.Obj, m.From, m.To); err != nil {
			t.Fatal(err)
		}

		// A session move chain, each move against a cold engine.
		for mv := 0; mv < 3; mv++ {
			obj, from, to := randomSessionMove(rng, cur)
			if err := cur.MoveReplica(obj, from, to); err != nil {
				t.Fatal(err)
			}
			got, err := se.Move(obj, from, to)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := DomainWorstCaseAtWith(cur, topo, topology.Leaf, s, d, SearchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Failed != cold.Failed {
				t.Fatalf("%s: session move %d: damage %d, cold engine %d", label, mv, got.Failed, cold.Failed)
			}
		}
		checkKey(t, label+" session after its moves", se, cur)
		for i, ch := range se.pool {
			checkKey(t, fmt.Sprintf("%s fork %d after the session's moves", label, i), ch, before)
		}
		if base, err = se.Evaluate(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProbeMovesDeterministic pins the batch contract: ProbeMoves at
// every worker count returns results byte-identical to the serial
// probe scan — damage, witness, exactness, and the visited-state
// counts — and leaves the session at its base state (the next
// Evaluate answers the base placement). Under SearchOpts.Workers = 4
// the batch keeps one level of parallelism: a serial batch searches at
// four workers and matches the serial scan's answers, while a fanned
// batch forks one-worker children whose visited-state counts equal the
// one-worker session's.
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
	for _, searchWorkers := range []int{1, 4} {
		for _, workers := range []int{1, 2, 8} {
			se, err := NewDomainSession(pl, topo, topology.Leaf, s, d, SearchOpts{Workers: searchWorkers})
			if err != nil {
				t.Fatal(err)
			}
			base, err := se.Evaluate(nil)
			if err != nil {
				t.Fatal(err)
			}
			got := se.ProbeMoves(moves, workers)
			st := se.Stats()
			st.Forks = 0 // fork count legitimately varies with workers
			label := fmt.Sprintf("search workers=%d, probe workers=%d", searchWorkers, workers)
			if want == nil {
				want = got
				wantStats = st
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
			} else if searchWorkers > 1 && workers == 1 {
				// A serial batch searches at the session's four workers:
				// every answer matches, the visited-state counts need not.
				for i := range got {
					g, w := got[i], want[i]
					g.Visited, w.Visited = 0, 0
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("%s: probe %d = %+v, want %+v", label, i, got[i], want[i])
					}
				}
				ws := wantStats
				st.Visited, ws.Visited = 0, 0
				if st != ws {
					t.Fatalf("%s: stats %+v, want %+v", label, st, ws)
				}
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: probe results differ from serial\n got %+v\nwant %+v", label, got, want)
			} else if st != wantStats {
				t.Fatalf("%s: stats %+v, want %+v", label, st, wantStats)
			}
			after, err := se.Evaluate(nil)
			if err != nil {
				t.Fatal(err)
			}
			if after.Failed != base.Failed || !reflect.DeepEqual(after.Nodes, base.Nodes) {
				t.Fatalf("%s: base state disturbed: %+v, want %+v", label, after, base)
			}
			if workers > 1 {
				if ch := se.probeFork(); ch.opts.Workers != 1 {
					t.Fatalf("%s: a probe fork searches at %d workers, want 1", label, ch.opts.Workers)
				}
			}
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
	se, err := NewNodeSession(pl, s, k, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Cap far below the chain's distinct placements: one entry per
	// shard at most. The memo is still empty, so swapping it loses
	// nothing.
	se.memo = newSessionMemo(memoShards)
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
		t.Fatalf("40 distinct placements under a memo cap of %d evicted nothing: %+v", memoShards, st)
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
