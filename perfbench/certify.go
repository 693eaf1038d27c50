package main

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/combin"
	"repro/internal/placement"
	"repro/internal/topology"
)

// certify: one operation is a pair of exact cold attacks, the paper's
// k-node adversary on a random placement, then the d-rack adversary on
// a zone-confined placement. The two query classes alternate strictly;
// a pair is the unit of latency so that one distribution is not split
// across the gap between the classes' costs.

const (
	certMinPairs   = 100 // p90 over pairs and per class keeps 10 samples beyond it
	certRerunPairs = 24  // traced run: pairs rerun untraced, at nproc and serially
)

type certifyState struct {
	topo   *topology.Topology
	node   []*placement.Placement
	domain []*placement.Placement
}

// setupCertify decodes the generated replica lists into the program's
// placements and builds the zone x rack topology.
func setupCertify(pairs []certifyPair) (*certifyState, error) {
	topo, err := topology.UniformHierarchy(certDomN, certZones, certRacksPerZone)
	if err != nil {
		return nil, err
	}
	st := &certifyState{topo: topo}
	for _, p := range pairs {
		np, err := decodePlacement(certNodeN, p.Node)
		if err != nil {
			return nil, err
		}
		dp, err := decodePlacement(certDomN, p.Domain)
		if err != nil {
			return nil, err
		}
		st.node = append(st.node, np)
		st.domain = append(st.domain, dp)
	}
	return st, nil
}

func decodePlacement(n int, objects [][]int) (*placement.Placement, error) {
	pl := placement.NewPlacement(n, modelR)
	for _, nodes := range objects {
		if err := pl.Add(nodes); err != nil {
			return nil, err
		}
	}
	return pl, pl.Validate()
}

// certifyResult is one pair's answers and timings.
type certifyResult struct {
	node, domain       adversary.Result
	nodeT, domainT     time.Duration
	nodeErr, domainErr error
}

// attackPair runs pair i's two attacks with the given worker count,
// inside spans when tr is non-nil.
func (st *certifyState) attackPair(i, workers int, tr *tracer) certifyResult {
	opts := adversary.SearchOpts{Workers: workers}
	np, dp := st.node[i%len(st.node)], st.domain[i%len(st.domain)]
	var r certifyResult
	op := tr.beginOp(i, "certify.pair")
	sp := tr.begin("adversary.WorstCaseWith", -1)
	t0 := time.Now()
	r.node, r.nodeErr = adversary.WorstCaseWith(np, modelS, certNodeK, opts)
	r.nodeT = time.Since(t0)
	tr.end(sp)
	sp = tr.begin("adversary.DomainWorstCaseWith", -1)
	t1 := time.Now()
	dres, err := adversary.DomainWorstCaseWith(dp, st.topo, modelS, certDomD, opts)
	r.domainT = time.Since(t1)
	tr.end(sp)
	tr.end(op)
	r.domain = adversary.Result{Failed: dres.Failed, Nodes: dres.Nodes, Exact: dres.Exact, Visited: dres.Visited}
	r.domainErr = err
	if err == nil && len(dres.Domains) != certDomD {
		r.domainErr = fmt.Errorf("domain attack names %d racks, want %d", len(dres.Domains), certDomD)
	}
	return r
}

// check verifies one pair: both answers exact, and each witness
// replays to the reported damage on its placement.
func (st *certifyState) check(i int, r certifyResult) error {
	if r.nodeErr != nil {
		return fmt.Errorf("node query: %w", r.nodeErr)
	}
	if r.domainErr != nil {
		return fmt.Errorf("domain query: %w", r.domainErr)
	}
	if len(r.node.Nodes) != certNodeK {
		return fmt.Errorf("node query: witness has %d nodes, want %d", len(r.node.Nodes), certNodeK)
	}
	if err := replay("node", st.node[i%len(st.node)], r.node); err != nil {
		return err
	}
	return replay("domain", st.domain[i%len(st.domain)], r.domain)
}

func replay(class string, pl *placement.Placement, res adversary.Result) error {
	if !res.Exact {
		return fmt.Errorf("%s query: result not exact", class)
	}
	if got := pl.FailedObjects(combin.NewBitsetFrom(pl.N, res.Nodes), modelS); got != res.Failed {
		return fmt.Errorf("%s query: witness fails %d objects, reported %d", class, got, res.Failed)
	}
	return nil
}

func runCertify(ro runOpts) (*outcome, error) {
	pairs := genCertify(ro.seed, certPool)
	var st *certifyState
	out := &outcome{tailP: 0.90}
	var err error
	out.setup, err = timedSetups(ro.setups, func() { st = nil }, func() (err error) {
		st, err = setupCertify(pairs)
		return err
	})
	if err != nil {
		return nil, err
	}
	pairs = nil

	var tr *tracer
	if ro.trace {
		tr = newTracer()
	}
	var results []certifyResult
	lim := loopLimits{seconds: ro.seconds, minOps: certMinPairs, maxOps: ro.maxOps}
	out.lat, out.loop = runLoop(lim, func(i int) (time.Duration, error) {
		r := st.attackPair(i, ro.workers, tr)
		results = append(results, r)
		return r.nodeT + r.domainT, st.check(i, r)
	}, out.fail)
	out.attempted = out.loop.ops
	out.rssMB = maxRSSMB()
	var nodeMs, domMs []float64
	for _, r := range results {
		nodeMs = append(nodeMs, ms(r.nodeT))
		domMs = append(domMs, ms(r.domainT))
	}
	out.notes = append(out.notes,
		fmt.Sprintf("node class (k=%d of n=%d): p50 %.3f ms, p90 %.3f ms (n=%d)", certNodeK, certNodeN, median(nodeMs), percentile(nodeMs, 0.9), len(nodeMs)),
		fmt.Sprintf("domain class (d=%d of %d racks): p50 %.3f ms, p90 %.3f ms (n=%d)", certDomD, certZones*certRacksPerZone, median(domMs), percentile(domMs, 0.9), len(domMs)))
	out.opsPerS = ratio(float64(len(out.lat)), sum(out.lat)/1e3)
	if !ro.trace {
		return out, nil
	}

	// Exact counts over the fixed prefix every run reaches; times and
	// states per time over every pair.
	k := min(certMinPairs, len(results))
	var visN, visD, allVisN, allVisD int64
	var tN, tD time.Duration
	for i, r := range results {
		if i < k {
			visN += r.node.Visited
			visD += r.domain.Visited
		}
		allVisN += r.node.Visited
		allVisD += r.domain.Visited
		tN += r.nodeT
		tD += r.domainT
	}
	out.counts = map[string]int64{"search.visited.node": visN, "search.visited.domain": visD}

	// Rerun a prefix untraced, at nproc and serially: the serial answer
	// pins each damage, the timings give the steal scheduler's speedup
	// and the tracing overhead.
	m := min(certRerunPairs, len(results))
	var parN, parD, serN, serD, traced, untraced time.Duration
	for i := 0; i < m; i++ {
		par := st.attackPair(i, ro.workers, nil)
		ser := st.attackPair(i, 1, nil)
		parN += par.nodeT
		parD += par.domainT
		serN += ser.nodeT
		serD += ser.domainT
		traced += results[i].nodeT + results[i].domainT
		untraced += par.nodeT + par.domainT
		if ser.node.Failed != results[i].node.Failed || ser.domain.Failed != results[i].domain.Failed {
			out.fail(i, fmt.Errorf("serial damage node %d domain %d, parallel node %d domain %d",
				ser.node.Failed, ser.domain.Failed, results[i].node.Failed, results[i].domain.Failed))
		}
	}
	spN, spD := ratio(float64(serN), float64(parN)), ratio(float64(serD), float64(parD))
	out.layers = []metric{
		{"search.visited.node", ratio(float64(visN), float64(k)), "count"},
		{"search.visited.domain", ratio(float64(visD), float64(k)), "count"},
		{"search.ns_per_state.node", ratio(float64(tN.Nanoseconds()), float64(allVisN)), "ns"},
		{"search.ns_per_state.domain", ratio(float64(tD.Nanoseconds()), float64(allVisD)), "ns"},
		{"search.parallel_speedup.node", spN, "x"},
		{"search.parallel_speedup.domain", spD, "x"},
		{"search.parallel_efficiency", (spN + spD) / 2 / float64(ro.workers), "ratio"},
		{"certify.node_ms.p50", median(nodeMs), "ms"},
		{"certify.node_ms.p90", percentile(nodeMs, 0.9), "ms"},
		{"certify.domain_ms.p50", median(domMs), "ms"},
		{"certify.domain_ms.p90", percentile(domMs, 0.9), "ms"},
		{"certify.queries_per_s", ratio(float64(2*len(results)), (tN + tD).Seconds()), "1/s"},
		{"trace.overhead_pct", 100 * (ratio(float64(traced), float64(untraced)) - 1), "%"},
	}
	out.spans = tr.spans
	return out, nil
}
