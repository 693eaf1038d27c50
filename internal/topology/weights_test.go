package topology

import (
	"strings"
	"testing"
)

// TestSpecWeightsAndCapsRoundTrip pins the annotated grammar: node
// weights (*w) and per-domain caps (cap=N, leaf and interior) survive
// ParseSpec∘Spec, and the canonical rendering is a fixed point.
func TestSpecWeightsAndCapsRoundTrip(t *testing.T) {
	spec := "r0 cap=3@za cap=5:0*2,1-3;r1@za cap=5:4-6;r2@zb:7*4,8-9"
	topo, err := ParseSpec(10, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.Weight(0); got != 2 {
		t.Errorf("Weight(0) = %d, want 2", got)
	}
	if got := topo.Weight(7); got != 4 {
		t.Errorf("Weight(7) = %d, want 4", got)
	}
	if got := topo.Weight(1); got != 1 {
		t.Errorf("Weight(1) = %d, want 1", got)
	}
	if !topo.Weighted() {
		t.Error("Weighted() = false with *2 and *4 nodes")
	}
	if got := topo.Leaves()[0].Cap; got != 3 {
		t.Errorf("leaf r0 cap = %d, want 3", got)
	}
	if got := topo.Tree[0][0].Cap; got != 5 {
		t.Errorf("zone za cap = %d, want 5", got)
	}
	if got := topo.Tree[0][1].Cap; got != 0 {
		t.Errorf("zone zb cap = %d, want 0 (unlimited)", got)
	}
	canon := topo.Spec()
	back, err := ParseSpec(10, canon)
	if err != nil {
		t.Fatalf("canonical spec %q does not re-parse: %v", canon, err)
	}
	if got := back.Spec(); got != canon {
		t.Fatalf("canonical spec not a fixed point:\n  first:  %s\n  second: %s", canon, got)
	}
	for nd := 0; nd < 10; nd++ {
		if back.Weight(nd) != topo.Weight(nd) {
			t.Errorf("node %d weight %d -> %d across round trip", nd, topo.Weight(nd), back.Weight(nd))
		}
	}
	for level := range topo.Tree {
		for di := range topo.Tree[level] {
			if back.Tree[level][di].Cap != topo.Tree[level][di].Cap {
				t.Errorf("level %d domain %d cap %d -> %d across round trip",
					level, di, topo.Tree[level][di].Cap, back.Tree[level][di].Cap)
			}
		}
	}
	// A weight range must break where the weight changes.
	if !strings.Contains(canon, "0*2,1-3") {
		t.Errorf("canonical spec %q should render 0*2,1-3", canon)
	}
}

// TestSpecUnannotatedUnchanged: topologies without weights or caps must
// render the exact PR-4 grammar (no stray annotations).
func TestSpecUnannotatedUnchanged(t *testing.T) {
	topo, err := UniformTree(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := topo.Spec()
	if strings.ContainsAny(spec, "* ") || strings.Contains(spec, "cap=") {
		t.Errorf("unannotated topology renders annotations: %q", spec)
	}
	// Explicit unit weights are the nil default: *1 tokens parse but
	// canonicalize away.
	got, err := ParseSpec(4, "a:0*1,1-3")
	if err != nil {
		t.Fatal(err)
	}
	if got.Weights != nil {
		t.Errorf("all-*1 spec materialized weights %v", got.Weights)
	}
}

func TestSpecAnnotationErrors(t *testing.T) {
	for _, tc := range []struct{ name, spec string }{
		{"cap zero", "a cap=0:0-3"},
		{"cap negative", "a cap=-2:0-3"},
		{"cap junk", "a cap=x:0-3"},
		{"unknown annotation", "a foo=3:0-3"},
		{"two caps one mention", "a cap=2 cap=3:0-3"},
		{"conflicting ancestor caps", "a@z cap=2:0,1;b@z cap=3:2,3"},
		{"weight zero", "a:0*0,1-3"},
		{"weight junk", "a:0*x,1-3"},
		{"weight negative", "a:0*-1,1-3"},
	} {
		if _, err := ParseSpec(4, tc.spec); err == nil {
			t.Errorf("%s: spec %q accepted", tc.name, tc.spec)
		}
	}
	// Later cap mention agreeing with the first is fine; adding a cap on
	// a later mention upgrades the earlier one.
	topo, err := ParseSpec(4, "a@z cap=4:0,1;b@z cap=4:2,3")
	if err != nil {
		t.Fatal(err)
	}
	if topo.Tree[0][0].Cap != 4 {
		t.Errorf("zone cap = %d, want 4", topo.Tree[0][0].Cap)
	}
	topo, err = ParseSpec(4, "a@z:0,1;b@z cap=6:2,3")
	if err != nil {
		t.Fatal(err)
	}
	if topo.Tree[0][0].Cap != 6 {
		t.Errorf("late-annotated zone cap = %d, want 6", topo.Tree[0][0].Cap)
	}
}

func TestWeightsAndCapsValidation(t *testing.T) {
	topo, err := Uniform(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	topo.Weights = []int{1, 1, 1}
	if err := topo.Validate(); err == nil {
		t.Error("short weights vector accepted")
	}
	topo.Weights = []int{1, 1, 1, 1, 0, 1}
	if err := topo.Validate(); err == nil {
		t.Error("zero weight accepted")
	}
	topo.Weights = []int{1, 2, 3, 1, 1, 1}
	if err := topo.Validate(); err != nil {
		t.Errorf("valid weights rejected: %v", err)
	}
	topo.Tree[0][1].Cap = -1
	if err := topo.Validate(); err == nil {
		t.Error("negative cap accepted")
	}
	topo.Tree[0][1].Cap = 7
	if err := topo.Validate(); err != nil {
		t.Errorf("valid cap rejected: %v", err)
	}
}

// TestCollapseCarriesWeightsAndLevelCaps: the flat projection keeps the
// node weights (weighted adversaries run on collapsed views) and its
// own level's caps, but not caps of other levels.
func TestCollapseCarriesWeightsAndLevelCaps(t *testing.T) {
	topo, err := ParseSpec(8, "r0 cap=2@za cap=9:0*3,1;r1@za cap=9:2,3;r2@zb:4,5;r3@zb:6,7")
	if err != nil {
		t.Fatal(err)
	}
	flatLeaf, err := topo.Collapse(Leaf)
	if err != nil {
		t.Fatal(err)
	}
	if flatLeaf.Weight(0) != 3 {
		t.Errorf("collapsed leaf Weight(0) = %d, want 3", flatLeaf.Weight(0))
	}
	if flatLeaf.Leaves()[0].Cap != 2 {
		t.Errorf("collapsed leaf cap = %d, want 2", flatLeaf.Leaves()[0].Cap)
	}
	flatZone, err := topo.Collapse(0)
	if err != nil {
		t.Fatal(err)
	}
	if flatZone.Leaves()[0].Cap != 9 {
		t.Errorf("collapsed zone cap = %d, want 9", flatZone.Leaves()[0].Cap)
	}
	if flatZone.Weight(0) != 3 {
		t.Errorf("collapsed zone Weight(0) = %d, want 3", flatZone.Weight(0))
	}
}

func TestLevelCaps(t *testing.T) {
	topo, err := UniformTree(8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.LevelCaps(); got != nil {
		t.Errorf("uncapped topology LevelCaps = %v, want nil", got)
	}
	topo.Tree[0][1].Cap = 5
	topo.Tree[1][0].Cap = 2
	caps := topo.LevelCaps()
	if caps == nil {
		t.Fatal("capped topology LevelCaps = nil")
	}
	want := [][]int{{-1, 5}, {2, -1, -1, -1}}
	for level := range want {
		for di := range want[level] {
			if caps[level][di] != want[level][di] {
				t.Errorf("LevelCaps[%d][%d] = %d, want %d", level, di, caps[level][di], want[level][di])
			}
		}
	}
}

// TestSetCap: SetCap caps the one domain carrying a name, at any level,
// and changes nothing when the name is unknown, used at two levels, or
// the cap is negative.
func TestSetCap(t *testing.T) {
	topo, err := ParseSpec(8, "x@x:0-1;y@x:2-3;r2@z:4-5;r3@z:6-7")
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetCap("z", 5); err != nil || topo.Tree[0][1].Cap != 5 {
		t.Fatalf("SetCap(z, 5): %v, zone z cap %d", err, topo.Tree[0][1].Cap)
	}
	if err := topo.SetCap("r3", 2); err != nil || topo.Tree[1][3].Cap != 2 {
		t.Fatalf("SetCap(r3, 2): %v, rack r3 cap %d", err, topo.Tree[1][3].Cap)
	}
	want := topo.Spec()
	for _, c := range []struct {
		name string
		cap  int
	}{{"x", 3}, {"nope", 3}, {"y", -1}} {
		if err := topo.SetCap(c.name, c.cap); err == nil {
			t.Errorf("SetCap(%s, %d) accepted", c.name, c.cap)
		}
	}
	if got := topo.Spec(); got != want {
		t.Errorf("rejected SetCap calls changed the topology: %q, want %q", got, want)
	}
}
