package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/controller"
	"repro/internal/placement"
	"repro/internal/topology"
)

func encode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// generators maps each workload to its input generator, encoded.
var generators = map[string]func(t *testing.T, seed int64) []byte{
	"certify": func(t *testing.T, seed int64) []byte { return encode(t, genCertify(seed, 4)) },
	"reconcile": func(t *testing.T, seed int64) []byte {
		return encode(t, genReconcile(seed, []int{600, 500, 400, 400, 300, 200}))
	},
	"plan": func(t *testing.T, seed int64) []byte { return encode(t, genPlan(seed, 256)) },
}

func TestGeneratorsDeterministic(t *testing.T) {
	for name, gen := range generators {
		a, b, c := gen(t, 7), gen(t, 7), gen(t, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

func TestCertifyStreamValid(t *testing.T) {
	perZone := certDomN / certZones
	for _, p := range genCertify(3, 8) {
		if len(p.Node) != certNodeB || len(p.Domain) != certDomB {
			t.Fatalf("pair has %d/%d objects, want %d/%d", len(p.Node), len(p.Domain), certNodeB, certDomB)
		}
		if _, err := decodePlacement(certNodeN, p.Node); err != nil {
			t.Fatalf("node placement: %v", err)
		}
		if _, err := decodePlacement(certDomN, p.Domain); err != nil {
			t.Fatalf("domain placement: %v", err)
		}
		for _, nodes := range p.Domain {
			if nodes[0]/perZone != nodes[len(nodes)-1]/perZone {
				t.Fatalf("object %v spans zones", nodes)
			}
		}
	}
}

// recRackName follows topology.UniformHierarchy's rack naming.
func recRackName(z, r int) string { return fmt.Sprintf("z%dr%d", z, r) }

// TestReconcileTraceValid replays each epoch's cluster model: every
// node and domain exists, restores target drained or failed nodes, at
// most one rack's worth of nodes is out and one zone capped at once,
// every cap set is feasible for the initial placement's node loads, and
// the epoch ends with nothing out or capped.
func TestReconcileTraceValid(t *testing.T) {
	topo, err := topology.UniformHierarchy(recN, recZones, recRacks)
	if err != nil {
		t.Fatal(err)
	}
	st, err := setupReconcile("", 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl := st.ctrl.Placement()
	loads := make([]int, recN)
	for obj := range pl.Objects {
		for _, nd := range pl.ReplicaNodes(obj) {
			loads[nd]++
		}
	}
	zl, err := zoneLoads(pl)
	if err != nil {
		t.Fatal(err)
	}
	zones := map[string]int{}
	for z, d := range topo.Tree[0] {
		zones[d.Name] = z
	}
	for z := 0; z < recZones; z++ {
		if _, ok := zones[recZoneName(z)]; !ok {
			t.Fatalf("zone %s missing from the topology", recZoneName(z))
		}
		for r := 0; r < recRacks; r++ {
			leaf := topo.Leaves()[z*recRacks+r]
			ri := z*recRacks + r
			if leaf.Name != recRackName(z, r) || len(leaf.Nodes) != recRackSize || leaf.Nodes[0] != recRackNodes(ri)[0] {
				t.Fatalf("rack (%d,%d) is %s %v, generator assumes %s from node %d",
					z, r, leaf.Name, leaf.Nodes, recRackName(z, r), recRackNodes(ri)[0])
			}
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		for e, epoch := range genReconcile(seed, zl) {
			checkEpoch(t, fmt.Sprintf("seed %d epoch %d", seed, e), epoch, topo, loads, zones)
		}
	}
}

// checkEpoch replays one epoch from a fresh cluster; it must end with
// every node active and no zone capped.
func checkEpoch(t *testing.T, name string, epoch []controller.Mutation, topo *topology.Topology, loads []int, zones map[string]int) {
	t.Helper()
	status := make([]controller.NodeStatus, recN)
	caps := make([]int, recZones)
	out, capped := 0, 0
	for i, m := range epoch {
		switch m.Kind {
		case controller.MutDrain, controller.MutFail, controller.MutRestore, controller.MutWeight:
			if m.Node < 0 || m.Node >= recN {
				t.Fatalf("%s mutation %d: node %d out of range", name, i, m.Node)
			}
		}
		switch m.Kind {
		case controller.MutDrain, controller.MutFail:
			if status[m.Node] != controller.NodeActive {
				t.Fatalf("%s mutation %d: %s of a node already out", name, i, m)
			}
			status[m.Node] = controller.NodeDraining
			out++
		case controller.MutRestore:
			if status[m.Node] == controller.NodeActive {
				t.Fatalf("%s mutation %d: restore of an active node", name, i)
			}
			status[m.Node] = controller.NodeActive
			out--
		case controller.MutWeight:
			if m.Weight < 1 {
				t.Fatalf("%s mutation %d: weight %d", name, i, m.Weight)
			}
		case controller.MutCap:
			z, ok := zones[m.Domain]
			if !ok {
				t.Fatalf("%s mutation %d: no domain %q", name, i, m.Domain)
			}
			if (caps[z] > 0) != (m.Cap == 0) {
				t.Fatalf("%s mutation %d: %s does not alternate tighten/lift", name, i, m)
			}
			caps[z] = m.Cap
			if m.Cap > 0 {
				capped++
			} else {
				capped--
			}
			if capped > 0 {
				levelCaps := [][]int{make([]int, recZones), nil}
				for z, c := range caps {
					levelCaps[0][z] = -1
					if c > 0 {
						levelCaps[0][z] = c
					}
				}
				if _, cert, err := placement.CheckCaps(topo, loads, levelCaps); err != nil || cert != nil {
					t.Fatalf("%s mutation %d: caps %v infeasible (%v, %v)", name, i, caps, cert, err)
				}
			}
		default:
			t.Fatalf("%s mutation %d: unknown kind %q", name, i, m.Kind)
		}
		if out > recRackSize || capped > 1 {
			t.Fatalf("%s mutation %d: %d nodes out, %d zones capped", name, i, out, capped)
		}
	}
	if out != 0 || capped != 0 {
		t.Fatalf("%s ends with %d nodes out and %d zones capped", name, out, capped)
	}
}

// TestPlanGridValid parses every request and checks its caps are
// feasible for the combo the request builds.
func TestPlanGridValid(t *testing.T) {
	inputs, err := setupPlan(genPlan(5, 216))
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[int]int{}
	for i, in := range inputs {
		req := in.req
		if req.B < 2*req.N || req.B > 7*req.N || req.N < 24 || req.N > 240 {
			t.Fatalf("request %d: n=%d b=%d outside the grid", i, req.N, req.B)
		}
		shapes[in.topo.Levels()]++
		if in.topo.LevelCaps() == nil {
			continue
		}
		combo, _, _, err := placement.BuildDefaultCombo(req.N, modelR, modelS, req.K, req.B)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		loads := make([]int, req.N)
		for obj := range combo.Objects {
			for _, nd := range combo.ReplicaNodes(obj) {
				loads[nd]++
			}
		}
		if _, cert, err := placement.CheckCaps(in.topo, loads, nil); err != nil || cert != nil {
			t.Fatalf("request %d: caps infeasible (%v, %v): %s", i, cert, err, req.Spec)
		}
	}
	for levels := 1; levels <= 3; levels++ {
		if shapes[levels] != len(inputs)/3 {
			t.Errorf("%d-level topologies: %d of %d requests, want a third", levels, shapes[levels], len(inputs))
		}
	}
}
