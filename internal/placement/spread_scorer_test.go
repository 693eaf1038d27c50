package placement

import (
	"math/rand"
	"testing"

	"repro/internal/combin"
	"repro/internal/topology"
)

// bruteDomainDamage is the independent oracle: the most objects any d
// whole domains fail, by direct enumeration of the C(D, d) subsets.
func bruteDomainDamage(pl *Placement, topo *topology.Topology, s, d int) int {
	worst := 0
	combin.ForEachSubset(topo.NumDomains(), d, func(domains []int) bool {
		if f := pl.FailedObjects(topo.FailedSet(domains), s); f > worst {
			worst = f
		}
		return true
	})
	return worst
}

// TestSpreadSessionCapCorrectAfterEviction checks the spread pass's
// candidate scorer against the brute-force oracle along a seeded chain
// of 21 distinct placements, each one replica move from the last, so
// every evaluation after the first is warm-seeded by its predecessor's
// witness; then re-scores the chain in reverse, with the witnesses
// chaining the other way.
func TestSpreadSessionCapCorrectAfterEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n, r, b, s, d = 8, 3, 16, 2, 2
	topo, err := topology.UniformTree(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	flat := topo // UniformTree is already flat at the leaf level

	pl := NewPlacement(n, r)
	for o := 0; o < b; o++ {
		nodes := rng.Perm(n)[:r]
		if err := pl.Add(nodes); err != nil {
			t.Fatal(err)
		}
	}

	sc := newSpreadScorer(s, d, b)
	placements := []*Placement{pl.Clone()}
	cur := pl.Clone()
	for i := 0; i < 20; i++ {
		obj := rng.Intn(b)
		from := -1
		for _, nd := range rng.Perm(n) {
			if cur.Objects[obj].Get(nd) {
				from = nd
				break
			}
		}
		to := -1
		for _, nd := range rng.Perm(n) {
			if !cur.Objects[obj].Get(nd) {
				to = nd
				break
			}
		}
		if err := cur.MoveReplica(obj, from, to); err != nil {
			t.Fatal(err)
		}
		placements = append(placements, cur.Clone())
	}
	want := make([]int, len(placements))
	for i, p := range placements {
		want[i] = sc.damage(p, flat, nil)
		if exact := bruteDomainDamage(p, topo, s, d); want[i] != exact {
			t.Fatalf("placement %d: scorer damage %d, brute force %d", i, want[i], exact)
		}
	}
	for i := len(placements) - 1; i >= 0; i-- {
		if got := sc.damage(placements[i], flat, nil); got != want[i] {
			t.Fatalf("reverse re-evaluation %d: damage %d, want %d", i, got, want[i])
		}
	}
}
