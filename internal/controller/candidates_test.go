package controller

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/placement"
	"repro/internal/topology"
)

// referenceCandidateMoves is the straightforward enumeration
// candidateMoves must match candidate for candidate: a fresh replica
// list and target list per source replica, a map for the witness, and
// every class walked over every object.
func referenceCandidateMoves(c *Controller, witness []int) []candidate {
	loads := c.pl.NodeLoads()
	domLoads := c.domainLoads(loads)
	order := make([]int, c.pl.N)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		na, nb := order[a], order[b]
		if loads[na] != loads[nb] {
			return loads[na] < loads[nb]
		}
		if wa, wb := c.topo.Weight(na), c.topo.Weight(nb); wa != wb {
			return wa < wb
		}
		return na < nb
	})
	targetsFor := func(obj, from int, targetOK func(nd int) bool) []int {
		var ts []int
		for _, nd := range order {
			if len(ts) >= c.opts.CandTargets {
				break
			}
			if c.status[nd] != NodeActive || nd == from || c.pl.Objects[obj].Get(nd) {
				continue
			}
			if targetOK != nil && !targetOK(nd) {
				continue
			}
			if !c.capHeadroom(domLoads, from, nd) {
				continue
			}
			ts = append(ts, nd)
		}
		return ts
	}
	var cands []candidate
	addSources := func(class int, onNode, targetOK func(nd int) bool) {
		for obj := 0; obj < c.pl.B(); obj++ {
			for _, nd := range c.pl.ReplicaNodes(obj) {
				if !onNode(nd) {
					continue
				}
				for _, to := range targetsFor(obj, nd, targetOK) {
					cands = append(cands, candidate{Move{Obj: obj, From: nd, To: to}, class})
				}
			}
		}
	}
	addSources(classEvacFail, func(nd int) bool { return c.status[nd] == NodeFailed }, nil)
	addSources(classEvacDrain, func(nd int) bool { return c.status[nd] == NodeDraining }, nil)
	over := map[int]bool{}
	for l := range c.topo.Tree {
		for d, dom := range c.topo.Tree[l] {
			if dom.Cap > 0 && domLoads[l][d] > dom.Cap {
				for _, nd := range dom.Nodes {
					over[nd] = true
				}
			}
		}
	}
	if len(over) > 0 {
		addSources(classCapRepair,
			func(nd int) bool { return over[nd] && c.status[nd] == NodeActive },
			func(nd int) bool { return !over[nd] })
	}
	if len(witness) > 0 {
		inWitness := make(map[int]bool, len(witness))
		for _, nd := range witness {
			inWitness[nd] = true
		}
		addSources(classImprove,
			func(nd int) bool { return inWitness[nd] && c.status[nd] == NodeActive }, nil)
	}
	return cands
}

// TestCandidateMovesReference pins candidate enumeration: over random
// controller states — failed, draining and over-cap nodes, weighted
// ties, a witness or none — candidateMoves returns exactly the
// reference's candidates in the reference's order, and atRisk equals
// the per-replica count of replicas on failed or draining nodes.
func TestCandidateMovesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n, r = 24, 3
	classes := make(map[int]int)
	for trial := 0; trial < 200; trial++ {
		// Few objects leave some nodes empty or with a single replica.
		b := 4 + rng.Intn(57)
		topo, err := topology.UniformTree(n, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			topo.Weights = make([]int, n)
			for nd := range topo.Weights {
				topo.Weights[nd] = 1 + rng.Intn(3)
			}
		}
		pl := placement.NewPlacement(n, r)
		for obj := 0; obj < b; obj++ {
			if err := pl.Add(rng.Perm(n)[:r]); err != nil {
				t.Fatal(err)
			}
		}
		// Cap some domains near their load: some end up over cap.
		loads := pl.NodeLoads()
		for l := range topo.Tree {
			for d := range topo.Tree[l] {
				if rng.Intn(3) == 0 {
					sum := 0
					for _, nd := range topo.Tree[l][d].Nodes {
						sum += loads[nd]
					}
					topo.Tree[l][d].Cap = max(1, sum-2+rng.Intn(5))
				}
			}
		}
		status := make([]NodeStatus, n)
		for nd := range status {
			switch rng.Intn(8) {
			case 0:
				status[nd] = NodeFailed
			case 1:
				status[nd] = NodeDraining
			}
		}
		c := &Controller{topo: topo, pl: pl, status: status,
			opts: Options{CandTargets: 1 + rng.Intn(5)}.withDefaults()}
		var witness []int
		if rng.Intn(4) > 0 {
			witness = rng.Perm(n)[:1+rng.Intn(8)]
		}
		label := fmt.Sprintf("trial %d", trial)
		got, want := c.candidateMoves(witness), referenceCandidateMoves(c, witness)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: candidateMoves returned %d candidates, reference %d\n got %v\nwant %v",
				label, len(got), len(want), got, want)
		}
		for _, cand := range got {
			classes[cand.class]++
		}
		atRisk := 0
		for obj := 0; obj < pl.B(); obj++ {
			for _, nd := range pl.ReplicaNodes(obj) {
				if status[nd] != NodeActive {
					atRisk++
				}
			}
		}
		if got := c.atRisk(); got != atRisk {
			t.Fatalf("%s: atRisk %d, per-replica count %d", label, got, atRisk)
		}
	}
	for _, class := range []int{classEvacFail, classEvacDrain, classCapRepair, classImprove} {
		if classes[class] == 0 {
			t.Fatalf("no trial produced a class-%d candidate: %v", class, classes)
		}
	}
}
