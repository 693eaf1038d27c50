// quorum simulates majority-quorum replicated state machines (the
// paper's r = 5, s = 3 setting): each object is a 5-replica group that
// stays live while a majority (3 of 5) survives — i.e. it fails once
// s = 3 replicas die. The example sweeps the number of failures k and
// prints the guaranteed availability of the combinatorial placement
// against the analytic behavior of random placement, reproducing the
// shape of the paper's r = 5, s = 3 comparisons.
//
//	go run ./examples/quorum
package main

import (
	"fmt"
	"log"

	"repro"
)

const (
	nodes    = 71
	groups   = 2400 // replicated state machine groups
	replicas = 5
	majority = 3 // failing 3 of 5 kills the quorum
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Printf("%d Raft-style groups (%d replicas, majority %d) on %d nodes\n\n",
		groups, replicas, majority, nodes)
	fmt.Printf("%3s  %12s  %12s  %s\n", "k", "combo(lb)", "random(pr)", "combo preserves")

	for k := majority; k <= 7; k++ {
		spec, bound, err := repro.PlanCombo(nodes, replicas, majority, k, groups)
		if err != nil {
			return err
		}
		pr, err := repro.PrAvail(repro.Params{
			N: nodes, B: groups, R: replicas, S: majority, K: k})
		if err != nil {
			return err
		}
		_ = spec
		note := ""
		if int64(pr) < int64(groups) {
			preserved := float64(bound-int64(pr)) / float64(int64(groups)-int64(pr)) * 100
			note = fmt.Sprintf("%.0f%% of Random's probable losses", preserved)
		}
		fmt.Printf("%3d  %12d  %12d  %s\n", k, bound, pr, note)
	}

	// Materialize the k = 5 plan and verify the guarantee empirically at
	// reduced search effort.
	const k = 5
	spec, bound, err := repro.PlanComboConstructible(nodes, replicas, majority, k, groups)
	if err != nil {
		return err
	}
	pl, err := repro.Materialize(nodes, replicas, spec, groups)
	if err != nil {
		return err
	}
	attack, err := repro.WorstAttack(pl, majority, k, repro.AttackOptions{Budget: 2_000_000})
	if err != nil {
		return err
	}
	avail := attack.Avail(groups)
	fmt.Printf("\nmaterialized plan for k=%d: lambdas %v\n", k, spec.Lambdas)
	fmt.Printf("strongest attack found: %v -> %d/%d groups keep quorum (guarantee: %d)\n",
		attack.Nodes, avail, groups, bound)
	return nil
}
