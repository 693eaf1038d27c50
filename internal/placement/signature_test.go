package placement

import (
	"math/rand"
	"testing"
)

// TestSignature pins the placement key: it ignores the order replicas
// were listed in, Sig.Move tracks a full recompute across a move chain
// (changing both lanes on every move, and undone by the reverse move),
// and the weight vector — nil, all ones, or any other — is part of the
// key.
func TestSignature(t *testing.T) {
	a, b := NewPlacement(6, 3), NewPlacement(6, 3)
	for _, err := range []error{a.Add([]int{0, 1, 2}), a.Add([]int{3, 4, 5}),
		b.Add([]int{2, 0, 1}), b.Add([]int{5, 3, 4})} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if Signature(a, nil) != Signature(b, nil) {
		t.Fatal("replica listing order changed the key")
	}

	rng := rand.New(rand.NewSource(5))
	pl := NewPlacement(16, 3)
	for obj := 0; obj < 40; obj++ {
		if err := pl.Add(rng.Perm(16)[:3]); err != nil {
			t.Fatal(err)
		}
	}
	key := Signature(pl, nil)
	for step := 0; step < 200; step++ {
		obj := rng.Intn(pl.B())
		members := pl.ReplicaNodes(obj)
		from, to := members[rng.Intn(len(members))], rng.Intn(pl.N)
		if pl.Objects[obj].Get(to) {
			continue
		}
		if err := pl.MoveReplica(obj, from, to); err != nil {
			t.Fatal(err)
		}
		next := key.Move(obj, from, to)
		if next.Lo == key.Lo || next.Hi == key.Hi {
			t.Fatalf("step %d: move left a lane unchanged: %+v -> %+v", step, key, next)
		}
		if next.Move(obj, to, from) != key {
			t.Fatalf("step %d: the reverse move did not restore the key", step)
		}
		if key = next; key != Signature(pl, nil) {
			t.Fatalf("step %d: moved key %+v, recompute %+v", step, key, Signature(pl, nil))
		}
	}

	ones := make([]int64, pl.B())
	other := make([]int64, pl.B())
	for i := range ones {
		ones[i], other[i] = 1, 1
	}
	other[7] = 2
	keys := map[Sig]string{}
	for name, w := range map[string][]int64{"nil": nil, "ones": ones, "other": other} {
		k := Signature(pl, w)
		if prev, ok := keys[k]; ok {
			t.Fatalf("weights %s and %s share a key", prev, name)
		}
		keys[k] = name
	}
	if Signature(pl, ones) != Signature(pl, append([]int64(nil), ones...)) {
		t.Fatal("equal weight vectors gave different keys")
	}
}
