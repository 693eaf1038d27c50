package main

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/placement"
	"repro/internal/randplace"
	"repro/internal/topology"
)

// plan: one operation is one plan request, the public calls
// `replicaplace plan` makes with a topology: the Combo DP, the random
// placement's table value, the constructible combo, the domain-aware
// spread (weighted or capped when the topology is), and the oblivious
// vs spread attacks at the requested level.

const (
	planMinOps   = 1000 // p99 keeps 10 samples beyond it
	planRerunOps = 300  // traced run: requests rerun untraced, and spread rerun serially
)

// planInput is a request decoded into the program's types.
type planInput struct {
	req  planRequest
	topo *topology.Topology
	dl   int // d clamped to the attacked level's domain count
}

// setupPlan parses every request's topology spec.
func setupPlan(reqs []planRequest) ([]planInput, error) {
	out := make([]planInput, len(reqs))
	for i, req := range reqs {
		topo, err := topology.ParseSpec(req.N, req.Spec)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		nd, err := topo.NumDomainsAt(req.Level)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		out[i] = planInput{req: req, topo: topo, dl: min(req.D, nd)}
	}
	return out, nil
}

// planResult is one request's answers.
type planResult struct {
	dur                    time.Duration
	combo, aware           *placement.Placement
	oblivious, spread      adversary.DomainResult
	tel                    placement.SpreadTelemetry
	optT, prT, buildT, spT time.Duration
}

// serve runs one plan request, inside spans when tr is non-nil.
func (in planInput) serve(i, workers int, tr *tracer) (r planResult, err error) {
	req, topo := in.req, in.topo
	t0 := time.Now()
	op := tr.beginOp(i, "plan.request")
	defer func() { tr.end(op); r.dur = time.Since(t0) }()
	timed := func(name string, d *time.Duration, f func() error) error {
		sp := tr.begin(name, -1)
		t := time.Now()
		err := f()
		if d != nil {
			*d = time.Since(t)
		}
		tr.end(sp)
		return err
	}
	err = timed("placement.OptimizeCombo", &r.optT, func() error {
		units, err := placement.DefaultUnits(req.N, modelR, modelS, false)
		if err != nil {
			return err
		}
		_, _, err = placement.OptimizeCombo(req.B, req.K, modelS, units)
		return err
	})
	if err != nil {
		return r, err
	}
	params := placement.Params{N: req.N, B: req.B, R: modelR, S: modelS, K: req.K}
	if err := timed("randplace.PrAvailTable", &r.prT, func() error {
		_, err := randplace.PrAvailTable(params)
		return err
	}); err != nil {
		return r, err
	}
	if err := timed("placement.BuildDefaultCombo", &r.buildT, func() (err error) {
		r.combo, _, _, err = placement.BuildDefaultCombo(req.N, modelR, modelS, req.K, req.B)
		return err
	}); err != nil {
		return r, err
	}
	if err := timed("placement.SpreadAcrossDomainsWith", &r.spT, func() (err error) {
		r.aware, _, err = placement.SpreadAcrossDomainsWith(r.combo, topo, modelS, req.D,
			placement.SpreadOpts{Weighted: topo.Weighted(), Telemetry: &r.tel, ProbeWorkers: workers})
		return err
	}); err != nil {
		return r, err
	}
	attack := func(pl *placement.Placement, res *adversary.DomainResult) error {
		return timed("adversary.DomainWorstCaseAtWith", nil, func() error {
			opts := adversary.SearchOpts{Workers: workers}
			if topo.Weighted() {
				w, err := placement.ObjectWeights(pl, topo)
				if err != nil {
					return err
				}
				opts.ObjWeights = w
			}
			var err error
			*res, err = adversary.DomainWorstCaseAtWith(pl, topo, req.Level, modelS, in.dl, opts)
			return err
		})
	}
	if err := attack(r.combo, &r.oblivious); err != nil {
		return r, err
	}
	return r, attack(r.aware, &r.spread)
}

// check verifies one request: the spread placement validates, caps
// hold, both attacks are exact, and the spread is never worse than
// the combo at the attacked level (in weight units on weighted
// topologies) whenever the combo itself meets the caps — the spread's
// guarantee is relative to the best cap-feasible layout.
func (in planInput) check(r planResult) error {
	if err := r.aware.Validate(); err != nil {
		return fmt.Errorf("spread placement: %w", err)
	}
	if !r.oblivious.Exact || !r.spread.Exact {
		return fmt.Errorf("attack not exact (oblivious %v, spread %v)", r.oblivious.Exact, r.spread.Exact)
	}
	if err := capsHold(r.aware, in.topo); err != nil {
		return fmt.Errorf("spread placement: %w", err)
	}
	if capsHold(r.combo, in.topo) == nil && r.spread.Failed > r.oblivious.Failed {
		return fmt.Errorf("spread loses %d at level %d, combo only %d", r.spread.Failed, in.req.Level, r.oblivious.Failed)
	}
	return nil
}

// capsHold checks every capped domain's replica count.
func capsHold(pl *placement.Placement, topo *topology.Topology) error {
	caps := topo.LevelCaps()
	if caps == nil {
		return nil
	}
	for level, levelCaps := range caps {
		load := make([]int, len(levelCaps))
		for obj := range pl.Objects {
			for _, nd := range pl.ReplicaNodes(obj) {
				di, err := topo.DomainOfAt(nd, level)
				if err != nil {
					return err
				}
				load[di]++
			}
		}
		for di, c := range levelCaps {
			if c >= 0 && load[di] > c {
				return fmt.Errorf("domain %s holds %d replicas, cap %d", topo.Tree[level][di].Name, load[di], c)
			}
		}
	}
	return nil
}

func runPlan(ro runOpts) (*outcome, error) {
	reqs := genPlan(ro.seed, planPool)
	out := &outcome{tailP: 0.99}
	var pool []planInput
	var err error
	out.setup, err = timedSetups(ro.setups, func() { pool = nil }, func() (err error) {
		pool, err = setupPlan(reqs)
		return err
	})
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if ro.trace {
		tr = newTracer()
	}
	var results []planResult
	lim := loopLimits{seconds: ro.seconds, minOps: planMinOps, maxOps: ro.maxOps}
	out.lat, out.loop = runLoop(lim, func(i int) (time.Duration, error) {
		in := pool[i%len(pool)]
		r, err := in.serve(i, ro.workers, tr)
		if err == nil {
			err = in.check(r)
		}
		r.combo, r.aware = nil, nil // keep only counters and timings
		results = append(results, r)
		return r.dur, err
	}, out.fail)
	out.attempted = out.loop.ops
	out.rssMB = maxRSSMB()
	out.opsPerS = ratio(float64(len(out.lat)), sum(out.lat)/1e3)
	if !ro.trace {
		return out, nil
	}

	// Exact counts over the fixed prefix every run reaches.
	k := min(planMinOps, len(results))
	var tel placement.SpreadTelemetry
	var visited int64
	for _, r := range results[:k] {
		tel.Evals += r.tel.Evals
		tel.MemoHits += r.tel.MemoHits
		tel.WarmSeeds += r.tel.WarmSeeds
		tel.Rebuilds += r.tel.Rebuilds
		visited += r.oblivious.Visited + r.spread.Visited
	}
	out.counts = map[string]int64{
		"spread.evals": tel.Evals, "spread.memo_hits": tel.MemoHits, "spread.warm_seeds": tel.WarmSeeds,
		"spread.rebuilds": tel.Rebuilds, "search.visited": visited,
	}

	// Rerun a prefix untraced, and its spreads serially: the serial
	// spread must pick the same placement, and the timings give the
	// spread fan-out speedup and the tracing overhead.
	m := min(planRerunOps, len(results))
	var traced, untraced, spPar, spSer time.Duration
	for i := 0; i < m; i++ {
		in := pool[i%len(pool)]
		r, err := in.serve(i, ro.workers, nil)
		if err != nil {
			return nil, fmt.Errorf("rerun request %d: %w", i, err)
		}
		t0 := time.Now()
		ser, _, err := placement.SpreadAcrossDomainsWith(r.combo, in.topo, modelS, in.req.D,
			placement.SpreadOpts{Weighted: in.topo.Weighted()})
		spSer += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("serial spread %d: %w", i, err)
		}
		if !samePlacement(ser, r.aware) {
			out.fail(i, fmt.Errorf("serial spread chose a different placement"))
		}
		traced += results[i].dur
		untraced += r.dur
		spPar += r.spT
	}
	var optT, prT, buildT, spT time.Duration
	for _, r := range results {
		optT += r.optT
		prT += r.prT
		buildT += r.buildT
		spT += r.spT
	}
	n := float64(len(results))
	fk := float64(k)
	out.layers = []metric{
		{"search.visited.per_request", float64(visited) / fk, "count"},
		{"adversary.attack_ms", 2 * meanMs(tr.spans, "adversary.DomainWorstCaseAtWith"), "ms"},
		{"placement.optimize_ms", ms(optT) / n, "ms"},
		{"randplace.pr_avail_ms", ms(prT) / n, "ms"},
		{"placement.build_combo_ms", ms(buildT) / n, "ms"},
		{"placement.spread_ms", ms(spT) / n, "ms"},
		{"placement.spread.evals", float64(tel.Evals) / fk, "count"},
		{"placement.spread.memo_hit_ratio", ratio(float64(tel.MemoHits), float64(tel.Evals)), "ratio"},
		{"placement.spread.warm_seeds", float64(tel.WarmSeeds) / fk, "count"},
		{"placement.spread.rebuilds", float64(tel.Rebuilds) / fk, "count"},
		{"placement.spread_fanout_speedup", ratio(float64(spSer), float64(spPar)), "x"},
		{"trace.overhead_pct", 100 * (ratio(float64(traced), float64(untraced)) - 1), "%"},
	}
	out.spans = tr.spans
	return out, nil
}

func samePlacement(a, b *placement.Placement) bool {
	if a.N != b.N || a.B() != b.B() {
		return false
	}
	for obj := range a.Objects {
		an, bn := a.ReplicaNodes(obj), b.ReplicaNodes(obj)
		for j := range an {
			if an[j] != bn[j] {
				return false
			}
		}
	}
	return true
}
