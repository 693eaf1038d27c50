// Quickstart: plan an availability-optimal replica placement, materialize
// it, and verify the worst-case guarantee by actually attacking it.
//
//	go run ./examples/quickstart
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
		n = 71  // nodes
		r = 3   // replicas per object
		s = 2   // an object dies once 2 of its replicas die
		k = 4   // plan for the worst 4 simultaneous node failures
		b = 600 // objects to place
	)

	// 1. Plan: the paper's dynamic program picks how many objects to
	//    place at each overlap level x (Combo over Simple(x, λx)).
	spec, bound, err := repro.PlanComboConstructible(n, r, s, k, b)
	if err != nil {
		return err
	}
	fmt.Printf("planned lambdas per overlap level: %v\n", spec.Lambdas)
	fmt.Printf("guarantee: >= %d of %d objects survive ANY %d node failures\n", bound, b, k)

	// 2. Materialize: real Steiner-system-backed replica sets.
	pl, err := repro.Materialize(n, r, spec, b)
	if err != nil {
		return err
	}
	fmt.Printf("first object's replicas: nodes %v\n", pl.ReplicaNodes(0))

	// 3. Verify: run the worst-case adversary against the concrete
	//    placement (branch-and-bound, bounded effort here).
	attack, err := repro.WorstAttack(pl, s, k, repro.AttackOptions{Budget: 3_000_000})
	if err != nil {
		return err
	}
	avail := attack.Avail(b)
	mode := "exact"
	if !attack.Exact {
		mode = "lower bound"
	}
	fmt.Printf("worst attack found fails nodes %v -> %d objects survive (%s)\n",
		attack.Nodes, avail, mode)
	fmt.Printf("guarantee holds: %v\n", int64(avail) >= bound)

	// 4. Compare with the Random baseline's analysis.
	pr, err := repro.PrAvail(repro.Params{N: n, B: b, R: r, S: s, K: k})
	if err != nil {
		return err
	}
	fmt.Printf("random placement would probably keep %d of %d available\n", pr, b)
	return nil
}
