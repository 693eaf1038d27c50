//go:build invariants

package adversary

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestSessionKeyAuditCatchesDrift pins the invariants build's key audit:
// a session whose memo key no longer matches its placement panics at
// the next move, probe or probe fork (a fanned batch forks before it
// probes), naming the operation.
func TestSessionKeyAuditCatchesDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	pl := randomPlacement(rng, 10, 3, 20)
	obj, from, to := randomSessionMove(rng, pl)
	ops := []struct {
		name string
		run  func(se *Session)
	}{
		{"Move", func(se *Session) { se.Move(obj, from, to) }},
		{"MoveInto", func(se *Session) { se.MoveInto(&SessionResult{}, obj, from, to) }},
		{"probe apply", func(se *Session) { se.ProbeMoves([]Move{{obj, from, to}}, 1) }},
		{"probe fork", func(se *Session) { se.ProbeMoves([]Move{{obj, from, to}, {obj, from, to}}, 2) }},
	}
	for _, op := range ops {
		se, err := NewNodeSession(pl, 2, 3, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		se.key.Lo ^= 1 // a stale key
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			op.run(se)
			return ""
		}()
		if want := "session key after " + op.name + " "; !strings.Contains(msg, want) {
			t.Fatalf("%s on a stale key: panic %q, want one containing %q", op.name, msg, want)
		}
	}
}
