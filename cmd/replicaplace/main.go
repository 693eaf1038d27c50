// Command replicaplace plans, materializes and evaluates worst-case
// availability-optimal replica placements (Li, Gao & Reiter, ICDCS 2015),
// and regenerates every figure of the paper's evaluation. Beyond the
// paper's independent-failure model, the topology subcommand and the
// topology flags evaluate correlated whole-domain failures over
// arbitrary-depth hierarchies (region → zone → rack) and the
// domain-aware spreading post-pass. A topology is either uniform
// (-racks, optionally grouped by -zones) or an explicit spec of any
// depth (-topo "rack@zone@region:nodes;..."); -level picks the tree
// level the correlated adversary fails (0 = top, -1 = leaf racks), and
// the topology subcommand also sweeps every level.
//
// Usage:
//
//	replicaplace plan    -n 71 -r 3 -s 2 -k 4 -b 600 [-racks 8 -dfail 1] [-topo spec -level 0] [-workers 8] [-stats] [-bound static] [-weights 0*4] [-caps rack0=8]
//	replicaplace place   -n 71 -r 3 -s 2 -k 4 -b 600 -out placement.json
//	replicaplace attack  -in placement.json -s 2 -k 4 [-budget 5000000] [-bound static] [-topo spec -level 0 -dfail 1] [-weights 0*4]
//	replicaplace analyze -n 71 -r 3 -s 2 -k 4 -b 600
//	replicaplace compare -n 13 -r 3 -s 2 -k 3 -b 26 [-racks 4 -dfail 1] [-topo spec -level 0] [-workers 8] [-stats] [-bound static] [-weights 0*4]
//	replicaplace topology -n 13 -r 3 -s 2 -k 3 -b 26 -racks 4 [-zones 2] [-topo spec] [-level 1] [-dfail 1] [-weights 0*4] [-caps rack0=8]
//	replicaplace experiment -fig 9a [-full] [-workers 8]
//	replicaplace experiment -fig domains [-bound static]
//	replicaplace reconcile -n 24 -r 3 -s 2 -b 40 -racks 6 -dfail 1 -k 2 -script muts.txt [-checkpoint ck.json [-resume]] [-seed 7 -fail-rate 0.3]
//
// reconcile is the continuous-operation loop: it consumes a mutation
// script (drain/fail/restore node, weight node w, cap domain n) and
// re-plans incrementally, moving at most -k replicas per step through
// a two-phase migration machine while never letting worst-case damage
// exceed the step's pre-migration guarantee. -checkpoint journals
// every phase transition (fsync'd write-ahead); -resume restarts from
// the journal, rolling the interrupted move forward or back. -seed
// turns on deterministic fault injection in the simulated data plane.
//
// Heterogeneity: -weights marks hot nodes ("0*4,6-8*2": node 0 weighs
// 4, nodes 6-8 weigh 2, the rest 1) — the topology sections then also
// report LOST WEIGHT, with each object inheriting its hottest replica
// host's weight, and the spreading pass minimizes lost weight instead
// of lost objects. -caps bounds the replicas any domain's subtree may
// absorb ("rack0=8,zone1=12", any level of the tree); an unsatisfiable
// cap set fails with a pigeonhole certificate naming the violated
// subtree ("zone z1 allows 3 replicas but its racks need 5"). Both
// annotations can also live inside a -topo spec ("rack0 cap=8:0*4,1-2").
//
// The -workers flag fans the branch-and-bound adversaries out over that
// many goroutines (0 = GOMAXPROCS, 1 = serial); exact search results are
// identical at any worker count — only wall-clock changes. Budget-limited
// parallel searches (compare's default -budget) may report slightly
// different — still valid — lower bounds run to run, because workers race
// for the shared state budget.
//
// The -bound flag is the pruning ablation switch: "residual" (default)
// prunes branch-and-bound with the gain-vector bounds on top of the
// replica-counting bound, "static" with the replica-counting bound only. Both return identical results;
// residual visits no more states (often far fewer — see -stats, which
// prints per-search diagnostics: bound, visited states, budget,
// exactness).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/placement"
	"repro/internal/search"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "replicaplace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: replicaplace <plan|place|attack|analyze|experiment> [flags]")
	}
	switch args[0] {
	case "plan":
		return cmdPlan(args[1:], w)
	case "place":
		return cmdPlace(args[1:], w)
	case "attack":
		return cmdAttack(args[1:], w)
	case "analyze":
		return cmdAnalyze(args[1:], w)
	case "compare":
		return cmdCompare(args[1:], w)
	case "verify":
		return cmdVerify(args[1:], w)
	case "topology":
		return cmdTopology(args[1:], w)
	case "experiment":
		return cmdExperiment(args[1:], w)
	case "reconcile":
		return cmdReconcile(args[1:], w)
	case "-h", "--help", "help":
		fmt.Fprintln(w, "subcommands: plan, place, attack, analyze, compare, verify, topology, experiment, reconcile")
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// modelFlags registers the shared model parameters on a flag set.
type modelFlags struct {
	n, r, s, k, b int
}

func addModelFlags(fs *flag.FlagSet) *modelFlags {
	mf := &modelFlags{}
	fs.IntVar(&mf.n, "n", 71, "number of nodes")
	fs.IntVar(&mf.r, "r", 3, "replicas per object")
	fs.IntVar(&mf.s, "s", 2, "replica failures that fail an object")
	fs.IntVar(&mf.k, "k", 4, "worst-case node failures planned for")
	fs.IntVar(&mf.b, "b", 600, "number of objects")
	return mf
}

// addWorkersFlag registers the shared adversary worker-count flag. def
// is 1 where the command was historically serial and 0 where its
// node-level search already fanned out over GOMAXPROCS (compare, whose
// domain section nevertheless stays serial unless -workers is explicit
// — see cmdCompare).
func addWorkersFlag(fs *flag.FlagSet, def int) *int {
	return fs.Int("workers", def, "adversary search workers (0 = GOMAXPROCS, 1 = serial)")
}

// addProbeWorkersFlag registers the planning-side probe fan-out width:
// how many forked adversary sessions (reconcile) or private spread
// sessions (plan) score candidates concurrently. The fan-out is
// result-deterministic at any width — it changes wall-clock only — so
// the default stays the historical serial scan.
func addProbeWorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("probe-workers", 1, "parallel candidate-probe workers (deterministic; 1 = serial)")
}

// cliWorkers maps the CLI worker convention (0 = GOMAXPROCS) onto the
// adversary.SearchOpts one (< 0 = GOMAXPROCS).
func cliWorkers(w int) int {
	if w == 0 {
		return -1
	}
	return w
}

// addBoundFlag registers the branch-and-bound pruning-bound ablation
// switch shared by the searching commands.
func addBoundFlag(fs *flag.FlagSet) *string {
	return fs.String("bound", "residual", "branch-and-bound pruning bound: residual | static (ablation)")
}

// addStatsFlag registers the search-diagnostics switch.
func addStatsFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("stats", false, "print search diagnostics (visited states, budget, exactness)")
}

// statsLine formats the diagnostics -stats prints after a search: the
// pruning bound, the budget as used/limit (used == states visited; the
// work-stealing driver settles its leases, so the count is exact), and
// whether the search proved its result exact.
func statsLine(label string, bound search.Bound, visited, budget int64, exact bool) string {
	limit := "unlimited"
	if budget > 0 {
		limit = fmt.Sprintf("%d", budget)
	}
	return fmt.Sprintf("  search stats [%s]: bound=%s budget=%d/%s exact=%v\n",
		label, bound, visited, limit, exact)
}

// spreadStatsLine formats the spread pass's candidate-scoring
// diagnostics: how many exact evaluations its incremental session
// answered from the damage memo or warm-started from the previous
// candidate's witness, versus full instance rebuilds.
func spreadStatsLine(tel placement.SpreadTelemetry) string {
	return fmt.Sprintf("  spread stats: evals=%d memo-hits=%d warm-seeds=%d rebuilds=%d\n",
		tel.Evals, tel.MemoHits, tel.WarmSeeds, tel.Rebuilds)
}
