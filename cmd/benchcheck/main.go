// Command benchcheck compares a freshly generated BENCH.json against a
// committed baseline and fails on regressions in the DETERMINISTIC
// benchmark metrics — the adversary core's visited-states counters,
// which measure search effort independently of the machine. Wall-clock
// numbers (ns/op) vary with hardware and are deliberately not checked.
//
// A benchmark regresses when its fresh metric exceeds the baseline by
// more than the allowed slack — max(relative tolerance, absolute
// floor) — and when a baseline benchmark disappears entirely (coverage
// loss is a regression too; intentional removals update the committed
// BENCH.json in the same change). New benchmarks absent from the
// baseline pass — they become tracked once the regenerated BENCH.json
// is committed.
//
// The absolute floor (-min-delta, default 50 states) exists for small
// deterministic counters: a purely relative tolerance turns a ±31-state
// wobble on a 300-state benchmark into a failure even though the same
// wobble is noise on every larger one. Tiny counters get a fixed grace
// of min-delta states; large counters are still held to the relative
// tolerance, which dominates once base*tolerance > min-delta.
//
// Alongside the gate, benchcheck prints one informational line —
// "N of M <metric> metrics identical", followed by the key and old ->
// new value of every metric that changed — so a change claiming
// unchanged search effort shows it in the CI log. The line never
// affects the exit code.
//
// Usage:
//
//	go run ./cmd/benchcheck -baseline BENCH.json -new BENCH.new.json [-tolerance 0.10] [-min-delta 50]
//
// `make bench-check` wires this against the committed baseline; CI runs
// it on every push.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchmark mirrors the cmd/benchjson row shape (only the fields the
// check needs).
type benchmark struct {
	Name    string             `json:"name"`
	Package string             `json:"package"`
	Metrics map[string]float64 `json:"metrics"`
}

type report struct {
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH.json", "committed baseline BENCH.json")
	newPath := flag.String("new", "BENCH.new.json", "freshly generated BENCH.json")
	tolerance := flag.Float64("tolerance", 0.10, "allowed relative increase before a metric counts as regressed")
	minDelta := flag.Float64("min-delta", 50, "absolute increase always allowed, so small counters aren't failed on jitter the relative tolerance forgives everywhere else")
	metric := flag.String("metric", "visited-states", "deterministic metric to compare")
	flag.Parse()

	baseline, err := load(*baselinePath)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "benchcheck: baseline %s does not exist — nothing to diff against, failing rather than passing vacuously (run `make bench` and commit %s to establish one)\n",
				*baselinePath, *baselinePath)
		} else {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
		}
		os.Exit(1)
	}
	fresh, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	failures, checked := compare(baseline, fresh, *metric, *tolerance, *minDelta)
	fmt.Printf("benchcheck: %d %s metrics compared against %s (tolerance %.0f%%, floor %.0f)\n",
		checked, *metric, *baselinePath, *tolerance*100, *minDelta)
	fmt.Println(identical(baseline, fresh, *metric))
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchcheck: REGRESSION:", f)
		}
		os.Exit(1)
	}
	if checked == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: baseline has no %s metrics — nothing was checked\n", *metric)
		os.Exit(1)
	}
	fmt.Println("benchcheck: OK")
}

func load(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// key identifies a benchmark row across reports.
func key(b benchmark) string { return b.Package + " " + b.Name }

// compare returns the regression messages (stable order) and the number
// of baseline metrics that were compared. A metric regresses when it
// exceeds the baseline by more than max(base*tolerance, minDelta): the
// relative tolerance governs large counters, the absolute floor keeps
// small deterministic counters from failing on jitter that would be
// invisible at scale.
func compare(baseline, fresh report, metric string, tolerance, minDelta float64) ([]string, int) {
	freshVals := values(fresh, metric)
	var failures []string
	checked := 0
	for _, b := range baseline.Benchmarks {
		base, ok := b.Metrics[metric]
		if !ok {
			continue
		}
		checked++
		now, ok := freshVals[key(b)]
		if !ok {
			failures = append(failures,
				fmt.Sprintf("%s: %s metric disappeared (baseline %.0f); update BENCH.json if the benchmark was intentionally removed",
					key(b), metric, base))
			continue
		}
		slack := base * tolerance
		if minDelta > slack {
			slack = minDelta
		}
		if now > base+slack+0.5 {
			failures = append(failures,
				fmt.Sprintf("%s: %s %.0f -> %.0f (+%.1f%%, allowed +%.0f)",
					key(b), metric, base, now, 100*(now-base)/base, slack))
		}
	}
	sort.Strings(failures)
	return failures, checked
}

// values indexes a report's metric by benchmark key.
func values(r report, metric string) map[string]float64 {
	vals := make(map[string]float64)
	for _, b := range r.Benchmarks {
		if v, ok := b.Metrics[metric]; ok {
			vals[key(b)] = v
		}
	}
	return vals
}

// identical returns the informational line counting the baseline
// metrics the fresh report reproduces exactly, followed by the keys of
// any that changed (old -> new, in key order) — so a change claiming
// unchanged search effort shows it in the log without a hand diff. It
// never affects the exit code.
func identical(baseline, fresh report, metric string) string {
	freshVals := values(fresh, metric)
	same, total := 0, 0
	var changed []string
	for _, b := range baseline.Benchmarks {
		base, ok := b.Metrics[metric]
		if !ok {
			continue
		}
		total++
		switch now, ok := freshVals[key(b)]; {
		case !ok:
			changed = append(changed, fmt.Sprintf("%s %.0f -> missing", key(b), base))
		case now == base:
			same++
		default:
			changed = append(changed, fmt.Sprintf("%s %.0f -> %.0f", key(b), base, now))
		}
	}
	line := fmt.Sprintf("benchcheck: %d of %d %s metrics identical", same, total, metric)
	if len(changed) > 0 {
		sort.Strings(changed)
		line += "; changed: " + strings.Join(changed, ", ")
	}
	return line
}
