// Heterogeneous clusters: one node is hot — it serves an order of
// magnitude more traffic than its peers, so an object stored on it is
// an order of magnitude more painful to lose. This walkthrough gives
// that node a weight, lets the correlated adversary maximize LOST
// WEIGHT instead of lost object count, and shows that a
// weighted-aware spreading pass strictly beats the unit-weight-aware
// one: both lose the same number of objects to the worst rack failure,
// but the weighted pass arranges for the lost objects to be cold.
//
//	go run ./examples/heterogeneous
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
		n   = 9  // nodes
		r   = 3  // replicas per object
		s   = 2  // an object dies once 2 of its replicas die
		k   = 3  // plan for 3 worst-case independent node failures
		b   = 16 // objects to place
		d   = 1  // the correlated adversary takes down 1 whole rack
		hot = 10 // node 0 serves 10x the traffic of its peers
	)

	// 1. Plan and materialize as usual: the placement layer knows
	//    nothing about weights.
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

	// 2. Describe the physical reality: 3 racks, and node 0 is hot.
	//    The same topology could be parsed from a spec with *w
	//    annotations: "rack0:0*10,1,2;rack1:3-5;rack2:6-8".
	topo, err := repro.UniformTopology(n, 3)
	if err != nil {
		return err
	}
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1
	}
	weights[0] = hot
	topo.Weights = weights
	fmt.Printf("topology: %s  (node 0 weighs %d)\n\n", topo.Spec(), hot)

	// 3. Spread twice: unit-weight-aware (the plain pass — it minimizes
	//    lost OBJECTS) and weighted-aware (SpreadOptions.Weighted — it
	//    minimizes lost WEIGHT, where an object inherits the weight of
	//    its hottest replica host).
	unitAware, _, err := repro.SpreadAcrossDomains(pl, topo, s, d)
	if err != nil {
		return err
	}
	weightedAware, _, err := repro.SpreadAcrossDomainsWith(pl, topo, s, d,
		repro.SpreadOptions{Weighted: true})
	if err != nil {
		return err
	}

	// 4. Judge all three layouts under BOTH adversaries: the plain one
	//    (lost objects) and the weighted one (lost weight).
	fmt.Printf("%-16s  %-16s  %-22s\n", "layout", "objects lost", "weight lost")
	report := func(name string, layout *repro.Placement) (int, error) {
		plain, err := repro.WorstDomainAttack(layout, topo, repro.LeafLevel, s, d, repro.AttackOptions{})
		if err != nil {
			return 0, err
		}
		objW, err := repro.ObjectWeights(layout, topo)
		if err != nil {
			return 0, err
		}
		weighted, err := repro.WorstDomainAttack(layout, topo, repro.LeafLevel, s, d, repro.AttackOptions{ObjWeights: objW})
		if err != nil {
			return 0, err
		}
		total := repro.SumWeights(objW, b)
		fmt.Printf("%-16s  %-16s  %-22s\n", name,
			fmt.Sprintf("%d of %d", plain.Failed, b),
			fmt.Sprintf("%d of %d", weighted.Failed, total))
		return weighted.Failed, nil
	}
	if _, err := report("oblivious", pl); err != nil {
		return err
	}
	lostUnit, err := report("unit-aware", unitAware)
	if err != nil {
		return err
	}
	lostWeighted, err := report("weighted-aware", weightedAware)
	if err != nil {
		return err
	}

	// 5. The point: the weighted-aware pass strictly beats the
	//    unit-weight-aware one on lost weight — same object count, but
	//    it steers the unavoidable losses onto cold objects.
	if lostWeighted >= lostUnit {
		return fmt.Errorf("expected a strict weighted win, got unit-aware %d vs weighted-aware %d",
			lostUnit, lostWeighted)
	}
	fmt.Printf("\nweighted-aware loses %d weight where unit-aware loses %d — a %.0f%% cut,\n",
		lostWeighted, lostUnit, 100*float64(lostUnit-lostWeighted)/float64(lostUnit))
	fmt.Printf("with the node-level guarantee untouched (relabeling is invisible to the node adversary).\n")
	return nil
}
