// Multi-region placement: real outages are hierarchical — a rack loses
// power, a zone loses cooling, a whole region falls off the network.
// This walkthrough places objects with Combo, describes a three-level
// region→zone→rack topology, and shows how one placement fares against
// the correlated adversary at every level of the tree: the hierarchical
// spreading pass separates each object's replicas across regions first,
// then zones, then racks, so the layout holds up even when a whole
// region dies — and per-rack replica caps keep any single rack from
// absorbing more than its share.
//
//	go run ./examples/multiregion
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		n = 12 // nodes
		r = 3  // replicas per object
		s = 2  // an object dies once 2 of its replicas die
		k = 6  // plan for 6 worst-case independent node failures
		b = 16 // objects to place
		d = 1  // the correlated adversary takes down 1 whole domain
	)

	// 1. Plan and materialize as usual. With k this aggressive the DP
	//    picks x = 0 partition chunks — compact, but fatal when a chunk's
	//    replica triple shares a failure domain.
	spec, bound, err := repro.PlanComboConstructible(n, r, s, k, b)
	if err != nil {
		return err
	}
	pl, err := repro.Materialize(n, r, spec, b)
	if err != nil {
		return err
	}
	fmt.Printf("combo lambdas %v: >= %d of %d objects survive any %d node failures\n",
		spec.Lambdas, bound, b, k)

	// 2. Describe the physical hierarchy: 2 regions, each with 2 zones
	//    of 2 racks. The same tree could be parsed from a spec
	//    ("rack@zone@region:nodes;..." — see repro.ParseTopology).
	topo, err := repro.TreeTopology(n, 2, 2, 2)
	if err != nil {
		return err
	}
	fmt.Printf("topology (%d levels): %s\n\n", topo.Levels(), topo.Spec())

	// 3. The oblivious layout versus the hierarchical spreading pass,
	//    judged by the exact whole-domain adversary at every level. The
	//    spread is never worse at ANY level — the top level is separated
	//    first, then each subtree recursively.
	aware, _, err := repro.SpreadAcrossDomains(pl, topo, s, d)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s  %-18s  %-18s\n", "level", "oblivious Avail", "aware Avail")
	for level := 0; level < topo.Levels(); level++ {
		obliv, err := repro.WorstDomainAttack(pl, topo, level, s, d, repro.AttackOptions{})
		if err != nil {
			return err
		}
		attack, err := repro.WorstDomainAttack(aware, topo, level, s, d, repro.AttackOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("%-8s  %-18s  %-18s (worst: %v)\n",
			topo.LevelName(level),
			fmt.Sprintf("%d of %d", obliv.Avail(b), b),
			fmt.Sprintf("%d of %d", attack.Avail(b), b),
			topo.DomainNamesAt(level, attack.Domains))
	}

	// 4. The node-level guarantee is untouched: relabeling is invisible
	//    to the independent adversary.
	nodeAttack, err := repro.WorstAttack(aware, s, k, repro.AttackOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("\nnode adversary on the aware layout: %d of %d (guarantee was %d)\n",
		nodeAttack.Avail(b), b, bound)

	// 5. An attacker with k node failures confined to one region — the
	//    realistic "big blast radius" threat — is still weaker than the
	//    free adversary.
	constrained, err := repro.WorstConstrainedAttack(aware, topo, 0, s, k, d, repro.AttackOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("%d node failures confined to %d region: %d of %d available\n",
		k, d, constrained.Avail(b), b)

	// 6. Capacity-constrained racks: cap every rack at its balanced
	//    share (this placement loads every node with 4 replicas, so a
	//    2-node rack gets a budget of 8) and spread again; no rack
	//    exceeds its budget, and the never-worse guarantee now holds
	//    among cap-feasible layouts — a relabeling that piled extra
	//    replicas onto one rack would be rejected outright.
	caps := make([]int, topo.NumDomains())
	for i, rack := range topo.Leaves() {
		caps[i] = 4 * len(rack.Nodes)
	}
	capped, _, err := repro.SpreadAcrossDomainsWith(pl, topo, s, d, repro.SpreadOptions{Caps: caps})
	if err != nil {
		return err
	}
	cappedAttack, err := repro.WorstDomainAttack(capped, topo, repro.LeafLevel, s, d, repro.AttackOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("with balanced per-rack caps: %d of %d available under the rack adversary\n",
		cappedAttack.Avail(b), b)
	return nil
}
