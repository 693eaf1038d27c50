package search

import (
	"reflect"
	"slices"
	"testing"
)

// TestAssign pins the candidate policy every adapter shares: eligible
// units with positive weighted load in canonical order, then idle units
// by id — all of them under keepIdle, else only as many as k needs —
// with Units and Pos translating through the instance's own ids.
func TestAssign(t *testing.T) {
	// Unit loads under w: 0 → 2, 1 → 0 (holds only the weightless
	// object 2), 2 → 3, 3 → 0 (empty), 4 → 2, 5 → 0 (empty).
	byID := [][]Hit{
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}},
		{{Obj: 2, C: 1}},
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}, {Obj: 3, C: 1}},
		nil,
		{{Obj: 1, C: 1}, {Obj: 3, C: 1}},
		nil,
	}
	w := []int64{1, 1, 0, 1}
	cases := []struct {
		name     string
		k        int
		ids      []int
		keepIdle bool
		want     []int // units by position
	}{
		{"engine, no padding needed", 2, nil, false, []int{2, 0, 4}},
		{"engine, padded to k", 5, nil, false, []int{2, 0, 4, 1, 3}},
		{"keep idle", 2, nil, true, []int{2, 0, 4, 1, 3, 5}},
		{"subset", 3, []int{1, 3, 4, 5}, false, []int{4, 1, 3}},
	}
	in := NewHitInstance(2, len(w))
	for _, tc := range cases {
		in.Assign(tc.k, byID, w, tc.ids, tc.keepIdle)
		if in.Len() != len(tc.want) || in.K() != tc.k {
			t.Fatalf("%s: Len %d K %d, want %d and %d", tc.name, in.Len(), in.K(), len(tc.want), tc.k)
		}
		for p, u := range tc.want {
			if in.Pos(u) != p || in.Load(p) != weightedLoad(byID[u], w) {
				t.Fatalf("%s: unit %d at %d (load %d), want position %d (load %d)",
					tc.name, u, in.Pos(u), in.Load(p), p, weightedLoad(byID[u], w))
			}
		}
		for u := range byID {
			if in.Pos(u) >= 0 && tc.want[in.Pos(u)] != u {
				t.Fatalf("%s: Pos(%d) = %d names a stale unit", tc.name, u, in.Pos(u))
			}
		}
		last := len(tc.want) - 1
		want := []int{tc.want[last], tc.want[0]}
		slices.Sort(want)
		if got := in.Units([]int{last, 0}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Units = %v, want %v", tc.name, got, want)
		}
	}
}

// TestAssignSteadyStateAllocs pins that re-assigning a warmed instance
// — the constrained engines' per-subset step and the spread scorer's
// per-candidate one — allocates nothing.
func TestAssignSteadyStateAllocs(t *testing.T) {
	byID := [][]Hit{
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}},
		{{Obj: 1, C: 2}},
		nil,
		{{Obj: 0, C: 1}, {Obj: 2, C: 1}},
	}
	w := []int64{3, 1, 2}
	subset := []int{3, 1, 0}
	in := NewHitInstance(2, 3)
	in.Assign(2, byID, w, nil, true)
	if allocs := testing.AllocsPerRun(100, func() {
		in.Assign(2, byID, w, nil, true)
		in.Assign(2, byID, nil, subset, false)
	}); allocs != 0 {
		t.Fatalf("Assign allocated %.1f times per run in steady state", allocs)
	}
}
