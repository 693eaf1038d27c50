//go:build !invariants

package adversary

// assertKey is a no-op in regular builds; the call sites inline away
// entirely.
func (se *Session) assertKey(string) {}
