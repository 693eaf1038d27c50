//go:build invariants

package controller

import (
	"path/filepath"
	"strings"
	"testing"
)

func ph(p Phase) *Phase { return &p }

func mustPanic(t *testing.T, wantMsg string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", wantMsg)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, wantMsg) {
			t.Fatalf("panic %v does not mention %q", r, wantMsg)
		}
	}()
	f()
}

func fl(p *Phase) *InFlight {
	if p == nil {
		return nil
	}
	return &InFlight{Phase: *p}
}

func TestInvariantsEnabled(t *testing.T) {
	if !InvariantsEnabled {
		t.Fatal("InvariantsEnabled = false under the invariants tag")
	}
}

// TestJournalLegalSequence replays one full life of the two-phase
// machine — consume, forward arcs, quiesce, a rollback, a stuck move
// surviving a mutation — through the shadow without tripping it.
func TestJournalLegalSequence(t *testing.T) {
	var st invariantState
	seq := []struct {
		applied int
		phase   *Phase
		prep    string // "+" after this write: PrepareAdd succeeded, etc.
	}{
		{0, nil, ""},                // New
		{1, nil, ""},                // Apply consumes a mutation
		{1, ph(PhaseIntent), ""},    // executeMove starts
		{1, ph(PhasePrepared), "+"}, // PrepareAdd succeeded, journaled
		{1, ph(PhaseAdded), "-"},    // CommitAdd succeeded, journaled
		{1, nil, ""},                // DropOld done, quiesced
		{1, ph(PhaseIntent), ""},    // next move, same step
		{1, nil, ""},                // rolled back (Abort cleared nothing outstanding)
		{2, nil, ""},                // next mutation
		{2, ph(PhaseIntent), ""},
		{2, ph(PhasePrepared), "+"},
		{3, ph(PhasePrepared), ""}, // stuck move survives a consumed mutation
		{3, ph(PhaseAdded), "-"},
		{3, nil, ""},
	}
	for i, s := range seq {
		if s.prep == "+" {
			st.notePrepared()
		}
		st.checkJournal(s.applied, fl(s.phase))
		if s.prep == "-" {
			st.noteCommitted()
		}
		_ = i
	}
}

func TestJournalIllegalTransitions(t *testing.T) {
	t.Run("applied backwards", func(t *testing.T) {
		var st invariantState
		st.checkJournal(2, nil)
		mustPanic(t, "went backwards", func() { st.checkJournal(1, nil) })
	})
	t.Run("skipped phase", func(t *testing.T) {
		var st invariantState
		st.checkJournal(0, fl(ph(PhaseIntent)))
		mustPanic(t, "illegal journal phase transition", func() {
			st.checkJournal(0, fl(ph(PhaseAdded)))
		})
	})
	t.Run("machine moves backward", func(t *testing.T) {
		var st invariantState
		st.init(0, fl(ph(PhaseAdded)))
		mustPanic(t, "illegal journal phase transition", func() {
			st.checkJournal(0, fl(ph(PhasePrepared)))
		})
	})
	t.Run("consume while transitioning", func(t *testing.T) {
		var st invariantState
		st.checkJournal(0, fl(ph(PhaseIntent)))
		mustPanic(t, "consumed a mutation", func() {
			st.checkJournal(1, fl(ph(PhasePrepared)))
		})
	})
	t.Run("prepared copy leak", func(t *testing.T) {
		var st invariantState
		st.checkJournal(0, fl(ph(PhaseIntent)))
		st.notePrepared()
		st.checkJournal(0, fl(ph(PhasePrepared)))
		// Quiescing without Abort or Commit first leaks the copy.
		mustPanic(t, "outstanding prepared copy", func() {
			st.checkJournal(0, nil)
		})
	})
}

// TestLoadSeedsShadow pins the recovery entry points: a checkpoint at
// intent or prepared assumes an outstanding copy until Abort clears
// it; one at added does not (the copy went live at commit).
func TestLoadSeedsShadow(t *testing.T) {
	var st invariantState
	st.init(5, fl(ph(PhasePrepared)))
	if !st.prepared {
		t.Fatal("prepared-phase checkpoint did not assume an outstanding copy")
	}
	st.noteAborted()
	st.checkJournal(5, nil) // rollback arm quiesces cleanly

	st.init(5, fl(ph(PhaseAdded)))
	if st.prepared {
		t.Fatal("added-phase checkpoint wrongly assumed an outstanding copy")
	}
	st.checkJournal(5, nil) // roll-forward arm quiesces cleanly
}

// TestKeptLoadsAudit pins the kept per-node loads' audit: a controller
// that evacuates a drained node and is loaded back from its
// journal passes the recount after every move and at Load, and a
// controller whose kept loads drift panics at the recount, naming the
// operation and the node.
func TestKeptLoadsAudit(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "ck.json")
	mem := NewMemActuator(ringPlacement(t, 8, 3, 12))
	c, _ := newTestController(t, mem, 2, journal)
	if _, err := c.Apply(Mutation{Kind: MutDrain, Node: 0}); err != nil {
		t.Fatal(err)
	}
	drainUntilQuiet(t, c, 20)
	c, err := Load(journal, mem, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if c.loads == nil {
		t.Fatal("the invariants build left the loads unfilled at Load")
	}
	c.loads[3]++
	mustPanic(t, "kept load of node 3", func() { c.assertLoads("test") })
}
