// Rack-aware placement: the paper's adversary fails any k independent
// nodes, but real outages take out whole racks. This walkthrough places
// objects with Combo, maps the abstract node ids onto a rack topology
// with the domain-aware spreading pass, and shows that (1) the
// node-level worst-case guarantee is untouched, since relabeling is
// invisible to the independent adversary, and (2) against the
// correlated whole-rack adversary the spread layout is never worse than
// the oblivious one — and strictly better when the placement's
// structure would otherwise align with the racks.
//
//	go run ./examples/rackaware
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
		n     = 12 // nodes
		r     = 3  // replicas per object
		s     = 2  // an object dies once 2 of its replicas die
		k     = 6  // plan for 6 worst-case independent node failures
		b     = 8  // objects to place
		racks = 3  // 4-node racks
		d     = 1  // the correlated adversary takes down 1 whole rack
	)

	// 1. Plan and materialize as usual. With k this aggressive the DP
	//    picks x = 0 partition chunks: groups of objects sharing one
	//    replica triple — compact, but fatal if a triple shares a rack.
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

	// 2. Describe the physical topology: 3 racks of 4 nodes.
	topo, err := repro.UniformTopology(n, racks)
	if err != nil {
		return err
	}
	fmt.Printf("topology: %s\n\n", topo.Spec())

	// 3. The oblivious layout (abstract id = physical node) puts whole
	//    replica triples inside single racks.
	stats, err := repro.DomainSpread(pl, topo)
	if err != nil {
		return err
	}
	attack, err := repro.WorstDomainAttack(pl, topo, repro.LeafLevel, s, d, repro.AttackOptions{})
	if err != nil {
		return err
	}
	availOblivious := attack.Avail(b)
	fmt.Printf("oblivious: objects span %d-%d racks; losing rack %v leaves %d of %d available\n",
		stats.MinDomains, stats.MaxDomains, topo.DomainNames(attack.Domains), availOblivious, b)

	// 4. The spreading post-pass relabels nodes so every object's three
	//    replicas land in three different racks.
	aware, _, err := repro.SpreadAcrossDomains(pl, topo, s, d)
	if err != nil {
		return err
	}
	stats, err = repro.DomainSpread(aware, topo)
	if err != nil {
		return err
	}
	attack, err = repro.WorstDomainAttack(aware, topo, repro.LeafLevel, s, d, repro.AttackOptions{})
	if err != nil {
		return err
	}
	availAware := attack.Avail(b)
	fmt.Printf("aware:     objects span %d-%d racks; losing rack %v leaves %d of %d available\n",
		stats.MinDomains, stats.MaxDomains, topo.DomainNames(attack.Domains), availAware, b)

	// 5. The node-level guarantee is untouched by the relabeling.
	nodeAttack, err := repro.WorstAttack(aware, s, k, repro.AttackOptions{})
	if err != nil {
		return err
	}
	availNode := nodeAttack.Avail(b)
	fmt.Printf("\nnode adversary on the aware layout: %d of %d (guarantee was %d)\n",
		availNode, b, bound)

	// 6. An attacker with k node failures but limited blast radius
	//    (at most d racks) is much weaker than the free adversary.
	constrained, err := repro.WorstConstrainedAttack(aware, topo, repro.LeafLevel, s, k, d, repro.AttackOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("%d node failures confined to %d rack(s): %d of %d available\n",
		k, d, constrained.Avail(b), b)
	return nil
}
