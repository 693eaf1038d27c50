//go:build invariants

package controller

import "fmt"

// InvariantsEnabled reports whether the build carries the runtime
// invariant assertions (`go test -tags invariants`).
const InvariantsEnabled = true

// invariantState shadows the two-phase move machine and asserts, at
// every journal write, that the observable sequence is one the
// recovery proof covers:
//
//   - applied (mutations consumed) never decreases;
//   - while applied is unchanged, the in-flight phase only follows the
//     machine's legal arcs — nil→intent→prepared→added→nil forward,
//     intent→nil / prepared→nil on rollback;
//   - consuming a mutation never moves the in-flight machine;
//   - a quiesced checkpoint (no in-flight move) is never journaled
//     while a prepared destination copy is still outstanding — the
//     no-leak property, asserted at the moment it would be persisted.
type invariantState struct {
	lastApplied int
	lastPhase   *Phase
	prepared    bool // an unaborted, uncommitted PrepareAdd is outstanding
}

// init seeds the shadow from a loaded checkpoint. A move journaled at
// intent or prepared may have an outstanding destination copy (the
// crash can land after an unjournaled PrepareAdd), so the shadow
// assumes one until recovery aborts it.
func (st *invariantState) init(applied int, fl *InFlight) {
	st.lastApplied = applied
	st.lastPhase = nil
	st.prepared = false
	if fl != nil {
		p := fl.Phase
		st.lastPhase = &p
		st.prepared = p == PhaseIntent || p == PhasePrepared
	}
}

// notePrepared records a successful PrepareAdd.
func (st *invariantState) notePrepared() { st.prepared = true }

// noteCommitted records a successful CommitAdd: the prepared copy is
// now live, not outstanding.
func (st *invariantState) noteCommitted() { st.prepared = false }

// noteAborted records a successful Abort: any destination trace is
// gone, prepared or live.
func (st *invariantState) noteAborted() { st.prepared = false }

// checkJournal validates one journal write against the shadow and
// advances it. Called for every checkpoint the controller would
// persist, whether or not a journal path is configured.
func (st *invariantState) checkJournal(applied int, fl *InFlight) {
	var phase *Phase
	if fl != nil {
		p := fl.Phase
		phase = &p
	}
	switch {
	case applied < st.lastApplied:
		panic(fmt.Sprintf("controller: invariants: journal applied went backwards: %d -> %d",
			st.lastApplied, applied))
	case applied == st.lastApplied:
		if !legalPhaseArc(st.lastPhase, phase) {
			panic(fmt.Sprintf("controller: invariants: illegal journal phase transition %s -> %s",
				phaseName(st.lastPhase), phaseName(phase)))
		}
	default:
		// Consuming a mutation is journaled before any actuation; the
		// in-flight machine must not have moved in the same write.
		if !samePhase(st.lastPhase, phase) {
			panic(fmt.Sprintf("controller: invariants: journal consumed a mutation (%d -> %d) while moving the in-flight phase %s -> %s",
				st.lastApplied, applied, phaseName(st.lastPhase), phaseName(phase)))
		}
	}
	if phase == nil && st.prepared {
		panic("controller: invariants: quiesced checkpoint journaled with an outstanding prepared copy (leak)")
	}
	st.lastApplied = applied
	st.lastPhase = phase
}

// legalPhaseArc reports whether the journal may move from to in one
// write at constant applied: a rewrite of the same state, one forward
// arc of the machine, or a rollback arm.
func legalPhaseArc(from, to *Phase) bool {
	if samePhase(from, to) {
		return true
	}
	switch {
	case from == nil:
		return to != nil && *to == PhaseIntent
	case to == nil:
		// added→nil completes roll-forward; intent→nil and prepared→nil
		// complete rollback.
		return true
	case *from == PhaseIntent:
		return *to == PhasePrepared
	case *from == PhasePrepared:
		return *to == PhaseAdded
	}
	return false
}

func samePhase(a, b *Phase) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

func phaseName(p *Phase) string {
	if p == nil {
		return "<none>"
	}
	return string(*p)
}

// assertLoads checks the controller's kept per-node replica loads
// against a recount of its placement, after every executed move and
// when a journal is loaded, and panics naming the operation on the
// first node that differs.
func (c *Controller) assertLoads(op string) {
	kept, want := c.nodeLoads(), c.pl.NodeLoads()
	if len(kept) != len(want) {
		panic(fmt.Sprintf("controller: invariants after %s: %d kept loads for %d nodes", op, len(kept), len(want)))
	}
	for nd := range want {
		if kept[nd] != want[nd] {
			panic(fmt.Sprintf("controller: invariants after %s: kept load of node %d is %d, placement holds %d",
				op, nd, kept[nd], want[nd]))
		}
	}
}
