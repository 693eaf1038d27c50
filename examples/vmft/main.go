// vmft simulates VM fault-tolerance pairs (the paper's r = 2 motivating
// scenario, e.g. VMware FT): each virtual machine runs as a
// primary/secondary pair on two hosts, and the VM dies only when both
// hosts die (s = r = 2). The example contrasts the worst-case damage of
// the combinatorial placement against random pair assignment as rack
// failures take out multiple hosts.
//
//	go run ./examples/vmft
package main

import (
	"fmt"
	"log"

	"repro"
)

const (
	hosts    = 31  // physical hosts
	vms      = 400 // FT virtual machine pairs
	replicas = 2
	fatality = 2 // both copies must die
	failures = 3 // worst-case simultaneous host failures planned for
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Printf("placing %d FT VM pairs on %d hosts, planning for %d host failures\n\n",
		vms, hosts, failures)

	// Combinatorial placement: no two hosts share more than λ VM pairs.
	spec, bound, err := repro.PlanComboConstructible(hosts, replicas, fatality, failures, vms)
	if err != nil {
		return err
	}
	comboPl, err := repro.Materialize(hosts, replicas, spec, vms)
	if err != nil {
		return err
	}
	comboAttack, err := repro.WorstAttack(comboPl, fatality, failures, repro.AttackOptions{})
	if err != nil {
		return err
	}
	comboAvail := comboAttack.Avail(vms)
	fmt.Printf("combinatorial placement (lambdas %v):\n", spec.Lambdas)
	fmt.Printf("  guaranteed survivors: %d/%d\n", bound, vms)
	fmt.Printf("  actual worst case:    %d/%d (attack on hosts %v)\n\n",
		comboAvail, vms, comboAttack.Nodes)

	// Random pair assignment, averaged over a few deployments.
	worst, bestWorst := vms, 0
	for seed := int64(1); seed <= 5; seed++ {
		rp, err := repro.RandomPlacement(repro.Params{
			N: hosts, B: vms, R: replicas, S: fatality, K: failures}, seed)
		if err != nil {
			return err
		}
		attack, err := repro.WorstAttack(rp, fatality, failures, repro.AttackOptions{})
		if err != nil {
			return err
		}
		avail := attack.Avail(vms)
		if avail < worst {
			worst = avail
		}
		if avail > bestWorst {
			bestWorst = avail
		}
	}
	fmt.Printf("random pairing over 5 deployments:\n")
	fmt.Printf("  worst-case survivors ranged %d..%d of %d\n\n", worst, bestWorst, vms)

	fmt.Printf("summary: the combinatorial placement caps the blast radius of any\n")
	fmt.Printf("%d-host failure at %d VMs; random pairing concentrates pairs and\n",
		failures, vms-comboAvail)
	fmt.Printf("loses up to %d VMs in its worst deployments.\n", vms-worst)
	return nil
}
