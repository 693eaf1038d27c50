//go:build !invariants

package controller

// InvariantsEnabled reports whether the build carries the runtime
// invariant assertions (`go test -tags invariants`).
const InvariantsEnabled = false

// invariantState is empty in regular builds; the hook calls inline
// away entirely.
type invariantState struct{}

func (invariantState) init(int, *InFlight)         {}
func (invariantState) notePrepared()               {}
func (invariantState) noteCommitted()              {}
func (invariantState) noteAborted()                {}
func (invariantState) checkJournal(int, *InFlight) {}

// assertLoads is a no-op in regular builds.
func (*Controller) assertLoads(string) {}
