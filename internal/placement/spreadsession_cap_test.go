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

// TestSpreadSessionCapCorrectAfterEviction pins the bounded-memo
// satellite: a spreadSession whose cap forces evictions keeps
// answering exactly — an evicted placement simply re-searches — and
// counts every eviction in the telemetry.
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

	const cap = 4
	var tel SpreadTelemetry
	ss := newSpreadSession(s, d, b, flat.NumDomains(), cap, &tel)

	// Drive a chain of distinct placements far past the cap, recording
	// each exact answer, then re-ask them all: the early ones were
	// evicted and must re-search to the same damage.
	placements := []*Placement{pl.Clone()}
	cur := pl.Clone()
	for i := 0; i < 5*cap; i++ {
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
		want[i] = ss.damage(p, flat, nil)
		if exact := bruteDomainDamage(p, topo, s, d); want[i] != exact {
			t.Fatalf("placement %d: session damage %d, brute force %d", i, want[i], exact)
		}
	}
	if tel.MemoEvicted == 0 {
		t.Fatalf("%d distinct placements under cap %d evicted nothing: %+v", len(placements), cap, tel)
	}
	if len(ss.memo) > cap {
		t.Fatalf("memo holds %d entries, cap %d", len(ss.memo), cap)
	}
	for i, p := range placements {
		if got := ss.damage(p, flat, nil); got != want[i] {
			t.Fatalf("re-evaluation %d after eviction: damage %d, want %d", i, got, want[i])
		}
	}
	if tel.MemoHits+tel.Rebuilds != tel.Evals {
		t.Fatalf("telemetry does not balance: %+v", tel)
	}
}
