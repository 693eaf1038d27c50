//go:build invariants

package adversary

import (
	"fmt"

	"repro/internal/placement"
)

// assertKey checks the session's move-maintained memo key against a
// full recompute of its placement's key and panics naming op on a
// divergence — a stale key would serve one placement's damage for
// another. O(b·r) per call: strictly a debug build; the !invariants
// stub compiles to nothing.
func (se *Session) assertKey(op string) {
	if want := placement.Signature(se.pl, se.opts.ObjWeights); se.key != want {
		panic(fmt.Sprintf("adversary: session key after %s is %016x%016x, full recompute %016x%016x",
			op, se.key.Hi, se.key.Lo, want.Hi, want.Lo))
	}
}
