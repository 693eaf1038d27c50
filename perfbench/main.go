// Command perfbench is the repository's end-to-end benchmark. It
// generates seeded inputs, drives one workload through the program's
// public functions in-process from one closed-loop caller, checks every
// output, and prints every metric with its unit. The last line of
// standard output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run records spans around the same calls and reports
// the per-layer ones. See README.md for the workloads and metrics.
//
// Usage (from the repository root, through the launcher that builds
// this package):
//
//	python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// runOpts configures one workload run.
type runOpts struct {
	seed    int64
	seconds float64
	workers int    // every worker setting of the program
	dir     string // working directory for journals
	trace   bool
	setups  int // set-up repetitions; the median is reported
	maxOps  int // cap on measured operations (tests); 0 = time-bounded
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	failures          []string
	lat               []float64 // per-operation latency, ms
	tailP             float64   // the workload's tail percentile
	opsPerS           float64
	setup             []float64 // seconds per set-up repetition
	rssMB             float64   // peak RSS through set-up and the measured loop
	loop              loopStats
	notes             []string
	// Traced runs only.
	layers []metric
	counts map[string]int64 // exact counts over a fixed operation prefix
	spans  []span
}

func (o *outcome) fail(i int, err error) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf("op %d: %v", i, err))
	}
}

var workloads = map[string]func(runOpts) (*outcome, error){
	"certify":   runCertify,
	"reconcile": runReconcile,
	"plan":      runPlan,
}

// endToEnd and perLayer list every reported metric with its unit, in
// BENCHMARK.json's order; a workload that does not exercise a layer
// reports 0 for it.
var endToEnd = []metric{
	{Name: "op_ms.p50", Unit: "ms"},
	{Name: "op_ms.tail", Unit: "ms"},
	{Name: "ops_per_s", Unit: "1/s"},
	{Name: "setup_s", Unit: "s"},
	{Name: "max_rss_mb", Unit: "MiB"},
}

var perLayer = []metric{
	{Name: "search.visited.node", Unit: "count"},
	{Name: "search.visited.domain", Unit: "count"},
	{Name: "search.ns_per_state.node", Unit: "ns"},
	{Name: "search.ns_per_state.domain", Unit: "ns"},
	{Name: "search.parallel_speedup.node", Unit: "x"},
	{Name: "search.parallel_speedup.domain", Unit: "x"},
	{Name: "search.parallel_efficiency", Unit: "ratio"},
	{Name: "search.visited.per_step", Unit: "count"},
	{Name: "search.visited.per_request", Unit: "count"},
	{Name: "certify.node_ms.p50", Unit: "ms"},
	{Name: "certify.node_ms.p90", Unit: "ms"},
	{Name: "certify.domain_ms.p50", Unit: "ms"},
	{Name: "certify.domain_ms.p90", Unit: "ms"},
	{Name: "certify.queries_per_s", Unit: "1/s"},
	{Name: "adversary.session.evals_per_step", Unit: "count"},
	{Name: "adversary.session.memo_hit_ratio", Unit: "ratio"},
	{Name: "adversary.session.warm_seed_ratio", Unit: "ratio"},
	{Name: "adversary.session.bracket_skip_ratio", Unit: "ratio"},
	{Name: "adversary.session.noop_move_ratio", Unit: "ratio"},
	{Name: "adversary.session.rebuilds", Unit: "count"},
	{Name: "adversary.session.memo_evicted", Unit: "count"},
	{Name: "adversary.batch_probes_per_step", Unit: "count"},
	{Name: "adversary.forks", Unit: "count"},
	{Name: "adversary.probe_fanout_speedup", Unit: "x"},
	{Name: "adversary.attack_ms", Unit: "ms"},
	{Name: "controller.actuate_ms", Unit: "ms"},
	{Name: "controller.plan_ms", Unit: "ms"},
	{Name: "controller.journal_ms", Unit: "ms"},
	{Name: "controller.moves_per_step", Unit: "count"},
	{Name: "controller.probe_yield", Unit: "ratio"},
	{Name: "controller.outcome.clean", Unit: "count"},
	{Name: "controller.outcome.degraded-budget", Unit: "count"},
	{Name: "controller.outcome.degraded-unsafe", Unit: "count"},
	{Name: "controller.outcome.degraded-stuck", Unit: "count"},
	{Name: "controller.checkpoint_bytes", Unit: "bytes"},
	{Name: "controller.checkpoint_encode_ms", Unit: "ms"},
	{Name: "placement.optimize_ms", Unit: "ms"},
	{Name: "randplace.pr_avail_ms", Unit: "ms"},
	{Name: "placement.build_combo_ms", Unit: "ms"},
	{Name: "placement.spread_ms", Unit: "ms"},
	{Name: "placement.spread.evals", Unit: "count"},
	{Name: "placement.spread.memo_hit_ratio", Unit: "ratio"},
	{Name: "placement.spread.warm_seeds", Unit: "count"},
	{Name: "placement.spread.rebuilds", Unit: "count"},
	{Name: "placement.spread_fanout_speedup", Unit: "x"},
	{Name: "trace.overhead_pct", Unit: "%"},
	{Name: "trace.op_self_ms", Unit: "ms"},
	{Name: "trace.spans", Unit: "count"},
}

// Set-up repetitions per run, each timed; the median is reported.
const setupReps = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "certify | reconcile | plan")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 25, "measured seconds (each workload also has an operation floor)")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	dir := fs.String("dir", ".bench_build", "working directory for journals, spans and result records (the journal filesystem is stamped)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runW, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload certify|reconcile|plan, -seconds > 0, -trace 0|1\n")
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	for _, sub := range []string{"out", "trace"} {
		if err := os.MkdirAll(filepath.Join(*dir, sub), 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	env := stampEnv(*dir, nproc)
	ro := runOpts{seed: *seed, seconds: *seconds, workers: nproc, dir: *dir, trace: *trace == 1, setups: setupReps}
	steal0, total0, ok0 := cpuTicks()
	out, err := runW(ro)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if steal1, total1, ok1 := cpuTicks(); ok0 && ok1 {
		env.HostStealPct = stealPct(steal0, total0, steal1, total1)
	}

	tag := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace)
	var metrics []metric
	if ro.trace {
		metrics = tracedMetrics(out)
		if err := writeSpans(filepath.Join(*dir, "trace", tag+".jsonl"), out.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	} else {
		metrics = endToEndMetrics(out)
	}

	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)
	fmt.Fprintf(stdout, "%s seed %d: %d operations, %d failed\n", *workload, *seed, out.attempted, out.failed)
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "  FAILED %s\n", f)
	}
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	note := ""
	if out.loop.fallback {
		note = " (too few quiet windows: all kept)"
	}
	fmt.Fprintf(stdout, "  steal filter: dropped %d of %d windows%s\n", out.loop.dropped, out.loop.windows, note)
	if !ro.trace {
		n := len(out.lat)
		fmt.Fprintf(stdout, "  samples: p50 over %d; tail is p%g over %d with %d beyond; set-up repeated %d times\n",
			n, 100*out.tailP, n, beyond(n, out.tailP), len(out.setup))
	} else {
		for _, s := range summarize(out.spans) {
			fmt.Fprintf(stdout, "  span %-36s n=%-6d mean %.4f ms  self %.4f ms\n", s.Name, s.Count, s.MeanMs, s.SelfMs)
		}
		keys := make([]string, 0, len(out.counts))
		for k := range out.counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "  count %s = %d\n", k, out.counts[k])
		}
	}
	result := map[string]any{}
	for _, m := range metrics {
		fmt.Fprintf(stdout, "  %-40s %.6g %s\n", m.Name, m.Value, m.Unit)
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		result[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	correct := out.failed == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": result,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	record, _ := json.MarshalIndent(map[string]any{"env": env, "result": json.RawMessage(line), "counts": out.counts}, "", "  ")
	if err := os.WriteFile(filepath.Join(*dir, "out", tag+".json"), record, 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

func endToEndMetrics(out *outcome) []metric {
	vals := map[string]float64{
		"op_ms.p50":  median(out.lat),
		"op_ms.tail": percentile(out.lat, out.tailP),
		"ops_per_s":  out.opsPerS,
		"setup_s":    median(out.setup),
		"max_rss_mb": out.rssMB,
	}
	return fill(endToEnd, vals)
}

func tracedMetrics(out *outcome) []metric {
	vals := map[string]float64{"trace.spans": float64(len(out.spans))}
	for _, m := range out.layers {
		vals[m.Name] = m.Value
	}
	vals["trace.op_self_ms"] = opSelfMs(out.spans)
	return fill(perLayer, vals)
}

// fill returns list with values from vals (0 where absent).
func fill(list []metric, vals map[string]float64) []metric {
	out := make([]metric, len(list))
	for i, m := range list {
		out[i] = metric{Name: m.Name, Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}
