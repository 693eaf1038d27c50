package controller

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/placement"
	"repro/internal/topology"
)

// referenceCandidateMoves is the straightforward enumeration of every
// class in full, whose budget-cut prefixes eachClass must match
// candidate for candidate: a fresh replica
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

// budgetedClasses applies planOne's budget rule to the reference's full
// list: its classes in order, each cut to the budget the earlier ones
// left, ending after the class that wins (win < 0: none does) or once
// the budget is spent.
func budgetedClasses(full []candidate, budget, win int) [][]candidate {
	var out [][]candidate
	for lo := 0; lo < len(full) && budget > 0; {
		hi := lo
		for hi < len(full) && full[hi].class == full[lo].class {
			hi++
		}
		group := full[lo:min(hi, lo+budget)]
		out = append(out, group)
		budget -= len(group)
		if full[lo].class == win {
			break
		}
		lo = hi
	}
	return out
}

// TestCandidateMovesReference pins candidate generation: over random
// controller states — failed, draining and over-cap nodes, weighted
// ties, a witness or none — eachClass hands planOne exactly the
// reference's candidates in the reference's order, cut by planOne's
// budget rule: each class is the reference's class prefix that the
// budget left by the earlier classes allows, and no class after one
// that wins is generated. Budgets run from unlimited (the full list)
// down to below a single class, and winners from none to the first
// class. atRisk equals the per-replica count of replicas on failed or
// draining nodes.
func TestCandidateMovesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n, r = 24, 3
	classes := make(map[int]int)
	var cut, preempted int // trials where the budget cut a class, and where a win left a later class ungenerated
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
		full := referenceCandidateMoves(c, witness)
		for _, cand := range full {
			classes[cand.class]++
		}
		budgets := []int{math.MaxInt, c.opts.CandProbes, 1 + rng.Intn(24)}
		for _, budget := range budgets {
			wins := []int{-1}
			if len(full) > 0 {
				wins = append(wins, full[rng.Intn(len(full))].class)
			}
			for _, win := range wins {
				label := fmt.Sprintf("trial %d, budget %d, winning class %d", trial, budget, win)
				var got [][]candidate
				c.eachClass(witness, budget, func(group []candidate) bool {
					got = append(got, slices.Clone(group))
					return group[0].class == win
				})
				want := budgetedClasses(full, budget, win)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: generated classes\n got %v\nwant %v", label, got, want)
				}
				if budget == math.MaxInt && win < 0 && !reflect.DeepEqual(slices.Concat(got...), full) {
					t.Fatalf("%s: unlimited classes do not make up the reference list", label)
				}
				if len(got) == 0 {
					continue
				}
				last := got[len(got)-1]
				if len(last) < countClass(full, last[0].class) {
					cut++
				}
				if last[0].class == win && full[len(full)-1].class > win {
					preempted++
				}
			}
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
			t.Fatalf("trial %d: atRisk %d, per-replica count %d", trial, got, atRisk)
		}
	}
	for _, class := range []int{classEvacFail, classEvacDrain, classCapRepair, classImprove} {
		if classes[class] == 0 {
			t.Fatalf("no trial produced a class-%d candidate: %v", class, classes)
		}
	}
	if cut == 0 || preempted == 0 {
		t.Fatalf("%d runs had a class cut by the budget and %d a win before later classes; want both", cut, preempted)
	}
}

// countClass counts the candidates of one class in a list.
func countClass(cands []candidate, class int) int {
	n := 0
	for _, cand := range cands {
		if cand.class == class {
			n++
		}
	}
	return n
}
