package adversary

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/placement"
	"repro/internal/topology"
)

// TestProbePoolResync pins the pooled probe forks: a session driven by
// an interleaving of Move, MoveInto, one-move Evaluates, rebuilding
// Evaluates and fanned ProbeMoves batches answers every call
// byte-identically to a twin that probes serially, so the forks are
// replayed level with the session before every batch. Its Forks count
// follows the pool: a batch forks only the children the pool lacks
// (min(workers, len(moves)) in all), a rebuild drops the pool, and so
// does a move log grown past maxPendingMoves; every other counter
// equals the twin's. The pooled instances share no slice with the
// session's or with each other's but the object weights.
func TestProbePoolResync(t *testing.T) {
	topo, err := topology.UniformTree(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	type config struct {
		name string
		open func(pl *placement.Placement) (*Session, error)
	}
	configs := []config{
		{"domain", func(pl *placement.Placement) (*Session, error) {
			return NewDomainSession(pl, topo, topology.Leaf, 2, 2, SearchOpts{})
		}},
		{"node-weighted", func(pl *placement.Placement) (*Session, error) {
			w := make([]int64, pl.B())
			for obj := range w {
				w[obj] = int64(1 + obj%3)
			}
			return NewNodeSession(pl, 2, 3, SearchOpts{ObjWeights: w})
		}},
	}
	for _, workers := range []int{2, 3, 8} {
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("%s/workers=%d", cfg.name, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(71 + workers)))
				pl := randomPlacement(rng, 12, 3, 24)
				ser, err := cfg.open(pl)
				if err != nil {
					t.Fatal(err)
				}
				par, err := cfg.open(pl)
				if err != nil {
					t.Fatal(err)
				}
				cur := pl.Clone()
				var pool, pending, forks int // the pool model
				commit := func() {
					if pool > 0 {
						if pending == maxPendingMoves {
							pool, pending = 0, 0
						} else {
							pending++
						}
					}
				}
				check := func(step int, op string, got, want any) {
					t.Helper()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d %s: pooled %+v, serial %+v", step, op, got, want)
					}
				}
				var dstS, dstP SessionResult
				for step := 0; step < 60; step++ {
					switch op := step % 6; {
					case op == 0 || step == 40: // a move chain past the log cap once
						chain := 1
						if step == 40 {
							chain = maxPendingMoves + 2
						}
						for range chain {
							obj, from, to := randomSessionMove(rng, cur)
							if err := cur.MoveReplica(obj, from, to); err != nil {
								t.Fatal(err)
							}
							a, errA := ser.Move(obj, from, to)
							b, errB := par.Move(obj, from, to)
							if errA != nil || errB != nil {
								t.Fatal(errA, errB)
							}
							check(step, "Move", b, a)
							commit()
						}
					case op == 1:
						obj, from, to := randomSessionMove(rng, cur)
						if err := cur.MoveReplica(obj, from, to); err != nil {
							t.Fatal(err)
						}
						if err := ser.MoveInto(&dstS, obj, from, to); err != nil {
							t.Fatal(err)
						}
						if err := par.MoveInto(&dstP, obj, from, to); err != nil {
							t.Fatal(err)
						}
						check(step, "MoveInto", dstP, dstS)
						commit()
					case op == 2 || op == 4:
						moves := probeBatch(rng, cur, 3+rng.Intn(10))
						if op == 4 {
							moves = moves[:2] // a batch smaller than the pool
						}
						check(step, "ProbeMoves", par.ProbeMoves(moves, workers), ser.ProbeMoves(moves, 1))
						if w := min(workers, len(moves)); w > 1 {
							forks += max(0, w-pool)
							pool, pending = max(pool, w), 0
						}
					case op == 3:
						obj, from, to := randomSessionMove(rng, cur)
						if err := cur.MoveReplica(obj, from, to); err != nil {
							t.Fatal(err)
						}
						a, errA := ser.Evaluate(cur)
						b, errB := par.Evaluate(cur)
						if errA != nil || errB != nil {
							t.Fatal(errA, errB)
						}
						check(step, "Evaluate (one move)", b, a)
						commit()
					case op == 5 && step%12 == 11:
						for range 2 {
							obj, from, to := randomSessionMove(rng, cur)
							if err := cur.MoveReplica(obj, from, to); err != nil {
								t.Fatal(err)
							}
						}
						a, errA := ser.Evaluate(cur)
						b, errB := par.Evaluate(cur)
						if errA != nil || errB != nil {
							t.Fatal(errA, errB)
						}
						check(step, "Evaluate (rebuild)", b, a)
						pool, pending = 0, 0
					}
				}
				ss, ps := ser.Stats(), par.Stats()
				if ss.Forks != 0 || ps.Forks != int64(forks) {
					t.Fatalf("forks: pooled %d (want %d), serial %d (want 0)", ps.Forks, forks, ss.Forks)
				}
				ps.Forks = 0
				check(60, "Stats", ps, ss)
				if len(par.pool) != pool {
					t.Fatalf("pool holds %d forks, want %d", len(par.pool), pool)
				}
				// Isolation of every pooled instance.
				insts := []*Session{par}
				insts = append(insts, par.pool...)
				for i := range insts {
					for j := i + 1; j < len(insts); j++ {
						if got := sharedSlices(insts[i].inst, insts[j].inst); len(got) > 0 {
							t.Fatalf("instances %d and %d share %v", i, j, got)
						}
					}
				}
			})
		}
	}
}

// sharedSlices lists the fields of two instances whose slices start at
// the same backing address, descending into the instance's nested
// structs (its scratch), except the object weights, which every copy
// shares by contract.
func sharedSlices(a, b any) []string {
	var out []string
	var walk func(x, y reflect.Value, path string)
	walk = func(x, y reflect.Value, path string) {
		for i := range x.NumField() {
			name := path + x.Type().Field(i).Name
			fx, fy := x.Field(i), y.Field(i)
			switch {
			case name == "w":
			case fx.Kind() == reflect.Struct:
				walk(fx, fy, name+".")
			case fx.Kind() == reflect.Slice && fx.Cap() > 0 && fy.Cap() > 0 && fx.Pointer() == fy.Pointer():
				out = append(out, name)
			}
		}
	}
	walk(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem(), "")
	return out
}
