package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/adversary"
	"repro/internal/controller"
	"repro/internal/placement"
	"repro/internal/topology"
)

// reconcile: one operation is one Controller.Apply (a mutation) or one
// Controller.Step (a settle step, repeated while the previous outcome
// was degraded-budget).
//
// The measured loop runs without a checkpoint journal, as the CLI's
// reconcile does without -checkpoint. With one, about half of a step is
// the journal's fsyncs, and on a virtual machine their latency follows
// the host's disk load, not the program: step latency then moved by a
// third between runs of one build. The traced run replays a prefix with
// a real fsync'd journal and reports the journal's share per step.

const (
	recMinOps    = 200 // p95 keeps 10 samples beyond it
	recReplayOps = 200 // traced run: ops replayed untraced, at nproc and at ProbeWorkers=1
	recMaxSettle = 50  // settle steps per mutation before the next mutation
)

type reconcileState struct {
	ctrl *controller.Controller
	mem  *controller.MemActuator
}

// setupReconcile is the program's set-up: the combo planned for k = 4
// node failures, the domain-aware spread, the controller with its
// initial exact evaluation (and first journal write when journal is
// not "").
func setupReconcile(journal string, probeWorkers, workers int, tr *tracer) (*reconcileState, error) {
	topo, err := topology.UniformHierarchy(recN, recZones, recRacks)
	if err != nil {
		return nil, err
	}
	combo, _, _, err := placement.BuildDefaultCombo(recN, modelR, modelS, recPlanK, recB)
	if err != nil {
		return nil, err
	}
	pl, _, err := placement.SpreadAcrossDomainsWith(combo, topo, modelS, recDFail,
		placement.SpreadOpts{Weighted: topo.Weighted(), ProbeWorkers: workers})
	if err != nil {
		return nil, err
	}
	mem := controller.NewMemActuator(pl)
	var act controller.Actuator = mem
	if tr != nil {
		act = &tracedActuator{inner: mem, tr: tr}
	}
	ctrl, err := controller.New(pl, controller.Config{
		Topo:     topo,
		Level:    topology.Leaf,
		S:        modelS,
		DFail:    recDFail,
		MaxMoves: recMaxMoves,
		Actuator: act,
		Journal:  journal,
		Opts: controller.Options{
			ProbeWorkers: probeWorkers,
			Search:       adversary.SearchOpts{Workers: workers},
		},
	})
	if err != nil {
		return nil, err
	}
	return &reconcileState{ctrl: ctrl, mem: mem}, nil
}

// zoneLoads counts the replicas pl puts in each zone of the reconcile
// cluster; the trace's zone caps are set relative to them.
func zoneLoads(pl *placement.Placement) ([]int, error) {
	topo, err := topology.UniformHierarchy(recN, recZones, recRacks)
	if err != nil {
		return nil, err
	}
	loads := make([]int, recZones)
	for obj := range pl.Objects {
		for _, nd := range pl.ReplicaNodes(obj) {
			z, err := topo.DomainOfAt(nd, 0)
			if err != nil {
				return nil, err
			}
			loads[z]++
		}
	}
	return loads, nil
}

// tracedActuator times each actuator call as a span under the open
// operation; the controller calls it synchronously from Apply/Step.
type tracedActuator struct {
	inner controller.Actuator
	tr    *tracer
}

func (a *tracedActuator) call(name string, f func() error) error {
	sp := a.tr.begin(name, -1)
	defer a.tr.end(sp)
	return f()
}

func (a *tracedActuator) PrepareAdd(ctx context.Context, m controller.Move) error {
	return a.call("actuator.PrepareAdd", func() error { return a.inner.PrepareAdd(ctx, m) })
}

func (a *tracedActuator) CommitAdd(ctx context.Context, m controller.Move) error {
	return a.call("actuator.CommitAdd", func() error { return a.inner.CommitAdd(ctx, m) })
}

func (a *tracedActuator) DropOld(ctx context.Context, m controller.Move) error {
	return a.call("actuator.DropOld", func() error { return a.inner.DropOld(ctx, m) })
}

func (a *tracedActuator) Abort(ctx context.Context, m controller.Move) error {
	return a.call("actuator.Abort", func() error { return a.inner.Abort(ctx, m) })
}

// tracePlayer walks the trace: Apply the next mutation, then Step while
// the controller reports degraded-budget; after each epoch it checks
// the data plane and starts the next epoch on a fresh cluster (that
// set-up happens between operations and is not timed).
type tracePlayer struct {
	epochs  [][]controller.Mutation
	ep      int
	next    int // next mutation of the epoch
	settles int // settle steps since the last mutation; -1: apply next
	applied int // mutations applied over all epochs
	setup   func() (*reconcileState, error)
	st      *reconcileState
}

func newTracePlayer(epochs [][]controller.Mutation, st *reconcileState, setup func() (*reconcileState, error)) *tracePlayer {
	return &tracePlayer{epochs: epochs, settles: -1, setup: setup, st: st}
}

// opStat is one operation's report and counter deltas.
type opStat struct {
	rep     *controller.StepReport
	stats   adversary.SessionStats
	dur     time.Duration
	encMs   float64
	ckBytes int
}

// step runs one operation, inside a span when tr is non-nil. A failed
// end-of-epoch check is reported with the next epoch's first operation.
func (d *tracePlayer) step(i int, tr *tracer) (opStat, error) {
	var epochErr error
	if d.settles < 0 && d.next == len(d.epochs[d.ep]) {
		if d.ep+1 == len(d.epochs) {
			return opStat{}, errStreamEnd
		}
		epochErr = d.st.quiesced()
		d.ep, d.next = d.ep+1, 0
		// As between set-up repetitions: release the old cluster first,
		// so peak memory never holds two.
		d.st = nil
		runtime.GC()
		var err error
		if d.st, err = d.setup(); err != nil {
			return opStat{}, fmt.Errorf("epoch %d set-up: %w", d.ep, err)
		}
	}
	st := d.st
	before := st.ctrl.SessionStats()
	var (
		rep *controller.StepReport
		err error
		rs  opStat
	)
	if d.settles < 0 {
		mut := d.epochs[d.ep][d.next]
		d.next++
		d.applied++
		sp := tr.beginOp(i, "controller.Apply")
		t0 := time.Now()
		rep, err = st.ctrl.Apply(mut)
		rs.dur = time.Since(t0)
		tr.end(sp)
		d.settles = 0
	} else {
		sp := tr.beginOp(i, "controller.Step")
		t0 := time.Now()
		rep, err = st.ctrl.Step()
		rs.dur = time.Since(t0)
		tr.end(sp)
		d.settles++
	}
	rs.rep = rep
	rs.stats = statsDelta(st.ctrl.SessionStats(), before)
	if err != nil {
		d.settles = -1
		return rs, err
	}
	if rep.Outcome != controller.OutcomeDegradedBudget || d.settles >= recMaxSettle {
		d.settles = -1
	}
	if rep.Damage > rep.Baseline {
		return rs, fmt.Errorf("never-degrade violated: damage %d > baseline %d (%s)", rep.Damage, rep.Baseline, rep.Outcome)
	}
	if epochErr != nil {
		return rs, fmt.Errorf("end of epoch %d: %w", d.ep-1, epochErr)
	}
	return rs, nil
}

// statsDelta returns a - b field by field; statsAdd returns a + b.
func statsDelta(a, b adversary.SessionStats) adversary.SessionStats { return statsCombine(a, b, -1) }
func statsAdd(a, b adversary.SessionStats) adversary.SessionStats   { return statsCombine(a, b, 1) }

func statsCombine(a, b adversary.SessionStats, sign int64) adversary.SessionStats {
	return adversary.SessionStats{
		Evals:        a.Evals + sign*b.Evals,
		MemoHits:     a.MemoHits + sign*b.MemoHits,
		WarmSeeds:    a.WarmSeeds + sign*b.WarmSeeds,
		BracketSkips: a.BracketSkips + sign*b.BracketSkips,
		NoopMoves:    a.NoopMoves + sign*b.NoopMoves,
		Moves:        a.Moves + sign*b.Moves,
		Rebuilds:     a.Rebuilds + sign*b.Rebuilds,
		Visited:      a.Visited + sign*b.Visited,
		Forks:        a.Forks + sign*b.Forks,
		BatchProbes:  a.BatchProbes + sign*b.BatchProbes,
		MemoEvicted:  a.MemoEvicted + sign*b.MemoEvicted,
	}
}

// quiesced checks the data plane against the controller's placement:
// no divergence and no leaked prepared copy.
func (st *reconcileState) quiesced() error {
	if diff := st.mem.Diff(st.ctrl.Placement(), st.ctrl.InFlightMove()); diff != "" {
		return fmt.Errorf("data plane diverges from the controller: %s", diff)
	}
	if n := st.mem.PreparedCount(); n != 0 {
		return fmt.Errorf("%d prepared copies leaked", n)
	}
	return nil
}

func runReconcile(ro runOpts) (*outcome, error) {
	out := &outcome{tailP: 0.95}
	var tr *tracer
	if ro.trace {
		tr = newTracer()
	}
	setup := func() (*reconcileState, error) { return setupReconcile("", ro.workers, ro.workers, tr) }
	var st *reconcileState
	var err error
	out.setup, err = timedSetups(ro.setups, func() { st = nil }, func() (err error) {
		st, err = setup()
		return err
	})
	if err != nil {
		return nil, err
	}

	loads, err := zoneLoads(st.ctrl.Placement())
	if err != nil {
		return nil, err
	}
	epochs := genReconcile(ro.seed, loads)
	player := newTracePlayer(epochs, st, setup)
	var ops []opStat
	lim := loopLimits{seconds: ro.seconds, minOps: recMinOps, maxOps: ro.maxOps}
	out.lat, out.loop = runLoop(lim, func(i int) (time.Duration, error) {
		rs, err := player.step(i, tr)
		if err == nil && ro.trace {
			t0 := time.Now()
			data, eerr := player.st.ctrl.Checkpoint().Encode()
			rs.encMs, rs.ckBytes, err = ms(time.Since(t0)), len(data), eerr
		}
		if !errors.Is(err, errStreamEnd) {
			ops = append(ops, rs)
		}
		return rs.dur, err
	}, out.fail)
	out.attempted = out.loop.ops
	out.rssMB = maxRSSMB()
	if err := player.st.quiesced(); err != nil {
		out.fail(out.attempted-1, err)
	}
	out.opsPerS = ratio(float64(len(out.lat)), sum(out.lat)/1e3)
	out.notes = append(out.notes, fmt.Sprintf("%d epochs, %d mutations applied, %d settle steps", player.ep+1, player.applied, len(ops)-player.applied))
	if !ro.trace {
		return out, nil
	}

	// Exact counts over the fixed prefix every run reaches.
	k := min(recMinOps, len(ops))
	var tot adversary.SessionStats
	var movesDone int64
	outcomes := map[controller.Outcome]int64{}
	for _, o := range ops[:k] {
		tot = statsAdd(tot, o.stats)
		if o.rep == nil {
			continue
		}
		outcomes[o.rep.Outcome]++
		for _, mv := range o.rep.Moves {
			if mv.Result == controller.MoveDone {
				movesDone++
			}
		}
	}
	out.counts = map[string]int64{
		"session.evals": tot.Evals, "session.memo_hits": tot.MemoHits, "session.warm_seeds": tot.WarmSeeds,
		"session.bracket_skips": tot.BracketSkips, "session.noop_moves": tot.NoopMoves, "session.moves": tot.Moves,
		"session.rebuilds": tot.Rebuilds, "session.visited": tot.Visited, "session.forks": tot.Forks,
		"session.batch_probes": tot.BatchProbes, "session.memo_evicted": tot.MemoEvicted,
		"controller.moves_done": movesDone,
	}
	for _, oc := range allOutcomes {
		out.counts["controller.outcome."+string(oc)] = outcomes[oc]
	}

	// Replay a prefix untraced: at nproc, at ProbeWorkers=1, and at nproc
	// with a real fsync'd journal. Every replay's step reports must match
	// the traced run's byte for byte; the timings give the tracing
	// overhead, the fan-out speedup and the journal's cost per step.
	jdir, err := os.MkdirTemp(ro.dir, "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(jdir)
	m := min(recReplayOps, len(ops))
	par, err := replayReconcile(epochs, m, ro.workers, ro.workers, "")
	if err != nil {
		return nil, err
	}
	ser, err := replayReconcile(epochs, m, 1, ro.workers, "")
	if err != nil {
		return nil, err
	}
	jour, err := replayReconcile(epochs, m, ro.workers, ro.workers, filepath.Join(jdir, "journal.json"))
	if err != nil {
		return nil, err
	}
	var traced, parT, serT, jourT time.Duration
	var encMs, ckBytes float64
	for i := 0; i < m; i++ {
		traced += ops[i].dur
		parT += par[i].dur
		serT += ser[i].dur
		jourT += jour[i].dur
		want, _ := json.Marshal(ops[i].rep)
		for _, rp := range []opStat{par[i], ser[i], jour[i]} {
			if got, _ := json.Marshal(rp.rep); !bytes.Equal(got, want) {
				out.fail(i, fmt.Errorf("replayed step report differs:\n  traced %s\n  replay %s", want, got))
			}
		}
	}
	for _, o := range ops {
		encMs += o.encMs
		ckBytes += float64(o.ckBytes)
	}
	spans := tr.spans
	var actMs float64
	for _, s := range spans {
		if s.Parent >= 0 {
			actMs += float64(s.End-s.Start) / 1e6
		}
	}
	nOps := float64(len(ops))
	fk := float64(k)
	ev := float64(tot.Evals)
	out.layers = []metric{
		{"search.visited.per_step", float64(tot.Visited) / fk, "count"},
		{"adversary.session.evals_per_step", ev / fk, "count"},
		{"adversary.session.memo_hit_ratio", ratio(float64(tot.MemoHits), ev), "ratio"},
		{"adversary.session.warm_seed_ratio", ratio(float64(tot.WarmSeeds), ev), "ratio"},
		{"adversary.session.bracket_skip_ratio", ratio(float64(tot.BracketSkips), ev), "ratio"},
		{"adversary.session.noop_move_ratio", ratio(float64(tot.NoopMoves), float64(tot.Moves)), "ratio"},
		{"adversary.session.rebuilds", float64(tot.Rebuilds), "count"},
		{"adversary.session.memo_evicted", float64(tot.MemoEvicted), "count"},
		{"adversary.batch_probes_per_step", float64(tot.BatchProbes) / fk, "count"},
		{"adversary.forks", float64(tot.Forks), "count"},
		{"adversary.probe_fanout_speedup", ratio(float64(serT), float64(parT)), "x"},
		{"controller.actuate_ms", actMs / nOps, "ms"},
		{"controller.plan_ms", opSelfMs(spans), "ms"},
		{"controller.journal_ms", ms(jourT-parT) / float64(m), "ms"},
		{"controller.moves_per_step", float64(movesDone) / fk, "count"},
		{"controller.probe_yield", ratio(float64(movesDone), float64(tot.BatchProbes)), "ratio"},
		{"controller.checkpoint_bytes", ckBytes / nOps, "bytes"},
		{"controller.checkpoint_encode_ms", encMs / nOps, "ms"},
		{"trace.overhead_pct", 100 * (ratio(float64(traced), float64(parT)) - 1), "%"},
	}
	for _, oc := range allOutcomes {
		out.layers = append(out.layers, metric{"controller.outcome." + string(oc), float64(outcomes[oc]), "count"})
	}
	out.spans = spans
	return out, nil
}

var allOutcomes = []controller.Outcome{
	controller.OutcomeClean, controller.OutcomeDegradedBudget,
	controller.OutcomeDegradedUnsafe, controller.OutcomeDegradedStuck,
}

// replayReconcile sets up afresh and runs the first m operations
// untraced with the given probe worker count.
func replayReconcile(epochs [][]controller.Mutation, m, probeWorkers, workers int, journal string) ([]opStat, error) {
	setup := func() (*reconcileState, error) { return setupReconcile(journal, probeWorkers, workers, nil) }
	st, err := setup()
	if err != nil {
		return nil, err
	}
	player := newTracePlayer(epochs, st, setup)
	out := make([]opStat, 0, m)
	for i := 0; i < m; i++ {
		rs, err := player.step(i, nil)
		if err != nil {
			return nil, fmt.Errorf("replay op %d: %w", i, err)
		}
		out = append(out, rs)
	}
	return out, nil
}
