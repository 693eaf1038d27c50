package topology

import (
	"strings"
	"testing"
)

func TestUniform(t *testing.T) {
	topo, err := Uniform(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Levels() != 1 {
		t.Fatalf("Levels = %d, want 1", topo.Levels())
	}
	if topo.NumDomains() != 4 {
		t.Fatalf("NumDomains = %d, want 4", topo.NumDomains())
	}
	sizes := []int{4, 3, 3, 3}
	total := 0
	for i, d := range topo.Leaves() {
		if len(d.Nodes) != sizes[i] {
			t.Errorf("domain %d has %d nodes, want %d", i, len(d.Nodes), sizes[i])
		}
		total += len(d.Nodes)
	}
	if total != 13 {
		t.Errorf("domains cover %d nodes, want 13", total)
	}
	for nd := 0; nd < 13; nd++ {
		di := topo.DomainOf(nd)
		found := false
		for _, v := range topo.Leaves()[di].Nodes {
			if v == nd {
				found = true
			}
		}
		if !found {
			t.Errorf("DomainOf(%d) = %d, but domain does not list the node", nd, di)
		}
	}
	if topo.MaxDomainSize() != 4 {
		t.Errorf("MaxDomainSize = %d, want 4", topo.MaxDomainSize())
	}
}

func TestUniformErrors(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{10, 0}, {10, 11}, {0, 1}} {
		if _, err := Uniform(tc.n, tc.d); err == nil {
			t.Errorf("Uniform(%d, %d) accepted", tc.n, tc.d)
		}
	}
}

func TestUniformHierarchy(t *testing.T) {
	topo, err := UniformHierarchy(24, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	zones, err := topo.NumDomainsAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Levels() != 2 || zones != 3 || topo.NumDomains() != 6 {
		t.Fatalf("got %d levels, %d zones, %d domains; want 2, 3, 6", topo.Levels(), zones, topo.NumDomains())
	}
	for i, d := range topo.Leaves() {
		if d.Parent != i/2 {
			t.Errorf("domain %d in zone %d, want %d", i, d.Parent, i/2)
		}
		if len(d.Nodes) != 4 {
			t.Errorf("domain %d has %d nodes, want 4", i, len(d.Nodes))
		}
	}
}

// TestUniformTreeBackwardCompatible pins the satellite constructors'
// contract: Uniform and UniformHierarchy are UniformTree at depths 1
// and 2, spec for spec.
func TestUniformTreeBackwardCompatible(t *testing.T) {
	flat, err := Uniform(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	tflat, err := UniformTree(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Spec() != tflat.Spec() {
		t.Errorf("UniformTree(13, 4) spec %q != Uniform %q", tflat.Spec(), flat.Spec())
	}
	hier, err := UniformHierarchy(24, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	thier, err := UniformTree(24, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hier.Spec() != thier.Spec() {
		t.Errorf("UniformTree(24, 3, 2) spec %q != UniformHierarchy %q", thier.Spec(), hier.Spec())
	}
}

func TestUniformTreeDepth3(t *testing.T) {
	topo, err := UniformTree(24, 2, 3, 2) // 2 regions x 3 zones x 2 racks
	if err != nil {
		t.Fatal(err)
	}
	if topo.Levels() != 3 {
		t.Fatalf("Levels = %d, want 3", topo.Levels())
	}
	for level, want := range []int{2, 6, 12} {
		got, err := topo.NumDomainsAt(level)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("NumDomainsAt(%d) = %d, want %d", level, got, want)
		}
	}
	if name := topo.Tree[0][1].Name; name != "region1" {
		t.Errorf("region name %q, want region1", name)
	}
	if name := topo.Tree[1][4].Name; name != "g1z1" {
		t.Errorf("zone name %q, want g1z1", name)
	}
	if name := topo.Leaves()[5].Name; name != "g0z2r1" {
		t.Errorf("rack name %q, want g0z2r1", name)
	}
	// Every rack nests in its zone, every zone in its region.
	for i, d := range topo.Leaves() {
		if d.Parent != i/2 {
			t.Errorf("rack %d parent %d, want %d", i, d.Parent, i/2)
		}
	}
	for i, d := range topo.Tree[1] {
		if d.Parent != i/3 {
			t.Errorf("zone %d parent %d, want %d", i, d.Parent, i/3)
		}
	}
	// Node 13 lives in rack 6 (2 nodes per rack), zone 3, region 1.
	if di := topo.DomainOf(13); di != 6 {
		t.Errorf("DomainOf(13) = %d, want 6", di)
	}
	for level, want := range []int{1, 3, 6} {
		got, err := topo.DomainOfAt(13, level)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("DomainOfAt(13, %d) = %d, want %d", level, got, want)
		}
	}
	for level, want := range []string{"region", "zone", "rack"} {
		if got := topo.LevelName(level); got != want {
			t.Errorf("LevelName(%d) = %q, want %q", level, got, want)
		}
	}
	if got := topo.LevelName(Leaf); got != "rack" {
		t.Errorf("LevelName(Leaf) = %q, want rack", got)
	}
}

func TestCollapse(t *testing.T) {
	topo, err := UniformTree(24, 2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for level, wantDomains := range []int{2, 6, 12} {
		flat, err := topo.Collapse(level)
		if err != nil {
			t.Fatal(err)
		}
		if flat.Levels() != 1 || flat.NumDomains() != wantDomains {
			t.Errorf("Collapse(%d): %d levels, %d domains; want 1, %d",
				level, flat.Levels(), flat.NumDomains(), wantDomains)
		}
		// Collapsed domains keep level order and names, and every node
		// lands in the domain DomainOfAt names.
		for nd := 0; nd < 24; nd++ {
			want, err := topo.DomainOfAt(nd, level)
			if err != nil {
				t.Fatal(err)
			}
			if got := flat.DomainOf(nd); got != want {
				t.Errorf("Collapse(%d): node %d in domain %d, want %d", level, nd, got, want)
			}
		}
		for i, d := range flat.Leaves() {
			if d.Name != topo.Tree[level][i].Name {
				t.Errorf("Collapse(%d) domain %d named %q, want %q", level, i, d.Name, topo.Tree[level][i].Name)
			}
		}
	}
	if _, err := topo.Collapse(3); err == nil {
		t.Error("Collapse(3) on a depth-3 topology accepted")
	}
	if _, err := topo.Collapse(-2); err == nil {
		t.Error("Collapse(-2) accepted")
	}
	leaf, err := topo.Collapse(Leaf)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.NumDomains() != topo.NumDomains() {
		t.Errorf("Collapse(Leaf) has %d domains, want %d", leaf.NumDomains(), topo.NumDomains())
	}
	// The level above the racks of a zone→rack tree is its zones, each
	// holding its racks' nodes.
	hier, err := UniformHierarchy(24, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	zl, err := hier.Collapse(hier.Levels() - 2)
	if err != nil {
		t.Fatal(err)
	}
	if zl.Levels() != 1 || zl.NumDomains() != 3 {
		t.Fatalf("zone level has %d levels, %d domains, want 1, 3", zl.Levels(), zl.NumDomains())
	}
	for _, d := range zl.Leaves() {
		if len(d.Nodes) != 8 {
			t.Errorf("zone %q has %d nodes, want 8", d.Name, len(d.Nodes))
		}
	}
}

func TestFailedSet(t *testing.T) {
	topo, err := Uniform(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	bs := topo.FailedSet([]int{0, 3})
	want := map[int]bool{0: true, 1: true, 6: true, 7: true}
	for nd := 0; nd < 10; nd++ {
		if bs.Get(nd) != want[nd] {
			t.Errorf("FailedSet.Get(%d) = %v, want %v", nd, bs.Get(nd), want[nd])
		}
	}
	names := topo.DomainNames([]int{0, 3})
	if names[0] != "rack0" || names[1] != "rack3" {
		t.Errorf("DomainNames = %v", names)
	}
}

func TestValidateRejectsBadTopologies(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		domains []Domain
		zones   []string
	}{
		{"uncovered node", 3, []Domain{{Name: "a", Parent: -1, Nodes: []int{0, 1}}}, nil},
		{"double booking", 2, []Domain{
			{Name: "a", Parent: -1, Nodes: []int{0, 1}},
			{Name: "b", Parent: -1, Nodes: []int{1}},
		}, nil},
		{"out of range", 2, []Domain{{Name: "a", Parent: -1, Nodes: []int{0, 2}}}, nil},
		{"duplicate names", 2, []Domain{
			{Name: "a", Parent: -1, Nodes: []int{0}},
			{Name: "a", Parent: -1, Nodes: []int{1}},
		}, nil},
		{"empty name", 1, []Domain{{Name: "", Parent: -1, Nodes: []int{0}}}, nil},
		{"reserved chars", 1, []Domain{{Name: "a:b", Parent: -1, Nodes: []int{0}}}, nil},
		{"empty domain", 1, []Domain{
			{Name: "a", Parent: -1, Nodes: []int{0}},
			{Name: "b", Parent: -1, Nodes: nil},
		}, nil},
		{"parent without zones", 1, []Domain{{Name: "a", Parent: 0, Nodes: []int{0}}}, nil},
		{"parent out of range", 1, []Domain{{Name: "a", Parent: 1, Nodes: []int{0}}}, []string{"z"}},
		{"childless zone", 1, []Domain{{Name: "a", Parent: 0, Nodes: []int{0}}}, []string{"z", "w"}},
		{"duplicate zones", 2, []Domain{
			{Name: "a", Parent: 0, Nodes: []int{0}},
			{Name: "b", Parent: 1, Nodes: []int{1}},
		}, []string{"z", "z"}},
		{"no domains", 1, nil, nil},
	}
	for _, tc := range cases {
		if _, err := New(tc.n, tc.domains, tc.zones); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestNewTreeRejectsBadTrees(t *testing.T) {
	leaf := func(name string, parent int, nodes ...int) Domain {
		return Domain{Name: name, Parent: parent, Nodes: nodes}
	}
	cases := []struct {
		name string
		n    int
		tree [][]Domain
	}{
		{"no levels", 1, nil},
		{"empty level", 1, [][]Domain{{}}},
		{"top parent set", 2, [][]Domain{
			{{Name: "z", Parent: 0}},
			{leaf("a", 0, 0, 1)},
		}},
		{"interior parent out of range", 2, [][]Domain{
			{{Name: "z", Parent: -1}},
			{leaf("a", 1, 0, 1)},
		}},
		{"childless interior", 2, [][]Domain{
			{{Name: "z", Parent: -1}, {Name: "w", Parent: -1}},
			{leaf("a", 0, 0, 1)},
		}},
		{"duplicate interior names", 3, [][]Domain{
			{{Name: "z", Parent: -1}, {Name: "z", Parent: -1}},
			{leaf("a", 0, 0), leaf("b", 1, 1, 2)},
		}},
	}
	for _, tc := range cases {
		if _, err := NewTree(tc.n, tc.tree); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Same leaf name under different parents is fine only across levels;
	// within the leaf level it stays rejected.
	if _, err := NewTree(2, [][]Domain{
		{{Name: "z", Parent: -1}, {Name: "w", Parent: -1}},
		{leaf("a", 0, 0), leaf("a", 1, 1)},
	}); err == nil {
		t.Error("duplicate leaf names accepted")
	}
	// Interior Nodes are derived: garbage in the input is overwritten.
	topo, err := NewTree(3, [][]Domain{
		{{Name: "z", Parent: -1, Nodes: []int{9999}}},
		{leaf("a", 0, 0, 1), leaf("b", 0, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.Tree[0][0].Nodes; len(got) != 3 {
		t.Errorf("interior nodes %v, want the derived union of 3 nodes", got)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	topos := []*Topology{}
	u, err := Uniform(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	topos = append(topos, u)
	h, err := UniformHierarchy(24, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	topos = append(topos, h)
	deep, err := UniformTree(24, 2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	topos = append(topos, deep)
	deeper, err := UniformTree(32, 2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topos = append(topos, deeper)
	// Non-contiguous, striped domains exercise the range renderer.
	striped, err := New(6, []Domain{
		{Name: "a", Parent: -1, Nodes: []int{0, 2, 4}},
		{Name: "b", Parent: -1, Nodes: []int{5, 3, 1}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	topos = append(topos, striped)

	for _, topo := range topos {
		spec := topo.Spec()
		back, err := ParseSpec(topo.N, spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if got := back.Spec(); got != spec {
			t.Errorf("round trip changed spec:\n  in:  %s\n  out: %s", spec, got)
		}
		if back.Levels() != topo.Levels() {
			t.Errorf("spec %q: round trip changed depth %d -> %d", spec, topo.Levels(), back.Levels())
		}
		for nd := 0; nd < topo.N; nd++ {
			for level := 0; level < topo.Levels(); level++ {
				wi, err := topo.DomainOfAt(nd, level)
				if err != nil {
					t.Fatal(err)
				}
				gi, err := back.DomainOfAt(nd, level)
				if err != nil {
					t.Fatal(err)
				}
				if gn, wn := back.Tree[level][gi].Name, topo.Tree[level][wi].Name; gn != wn {
					t.Errorf("spec %q: node %d mapped to %q at level %d, want %q",
						spec, nd, gn, level, wn)
				}
			}
		}
	}
}

func TestParseSpecExamples(t *testing.T) {
	topo, err := ParseSpec(7, "rack0:0-2;rack1:3,4;rack2:5-6")
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumDomains() != 3 || topo.DomainOf(4) != 1 {
		t.Errorf("parsed topology wrong: %d domains, DomainOf(4) = %d", topo.NumDomains(), topo.DomainOf(4))
	}
	zoned, err := ParseSpec(4, "a@east:0,1;b@west:2,3")
	if err != nil {
		t.Fatal(err)
	}
	if zoned.Levels() != 2 || zoned.Leaves()[1].Parent != 1 {
		t.Errorf("levels = %d, domain b parent = %d", zoned.Levels(), zoned.Leaves()[1].Parent)
	}
	if !strings.Contains(zoned.Spec(), "@east") {
		t.Errorf("zoned spec %q lost zones", zoned.Spec())
	}
	// Depth 3: two regions, three zones, four racks — zones declared by
	// first use, each consistently under one region.
	deep, err := ParseSpec(8, "r0@za@east:0,1;r1@za@east:2,3;r2@zb@west:4,5;r3@zc@west:6,7")
	if err != nil {
		t.Fatal(err)
	}
	if deep.Levels() != 3 {
		t.Fatalf("Levels = %d, want 3", deep.Levels())
	}
	if got, _ := deep.NumDomainsAt(0); got != 2 {
		t.Errorf("regions = %d, want 2", got)
	}
	if got, _ := deep.NumDomainsAt(1); got != 3 {
		t.Errorf("zones = %d, want 3", got)
	}
	if ri, _ := deep.DomainOfAt(6, 0); deep.Tree[0][ri].Name != "west" {
		t.Errorf("node 6 in region %q, want west", deep.Tree[0][ri].Name)
	}
	if got := deep.Spec(); got != "r0@za@east:0-1;r1@za@east:2-3;r2@zb@west:4-5;r3@zc@west:6-7" {
		t.Errorf("deep spec not canonical: %q", got)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		n    int
		spec string
	}{
		{4, ""},
		{4, "rack0"},
		{4, "rack0:x"},
		{4, "rack0:0-x"},
		{4, "rack0:3-1"},
		{4, "rack0:0-9999999"},
		{4, "a:0,1;b@z:2,3"},             // mixed depths
		{4, "a@z@east:0,1;b@w:2,3"},      // mixed depths, deeper
		{4, "a@z@east:0,1;b@z@west:2,3"}, // zone z under two regions
		{4, "a@:0,1;b@:2,3"},             // empty ancestor name
		{4, "a:0,1"},                     // nodes 2, 3 uncovered
		{2, "a:0;a:1"},                   // duplicate name
		{4, "a@east:0,1;a@west:2,3"},     // duplicate leaf across zones
	}
	for _, tc := range cases {
		if _, err := ParseSpec(tc.n, tc.spec); err == nil {
			t.Errorf("ParseSpec(%d, %q) accepted", tc.n, tc.spec)
		}
	}
}
