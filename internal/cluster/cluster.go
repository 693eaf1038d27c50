// Package cluster provides a small storage-cluster simulation built on the
// placement library: named objects are admitted to (and removed from) a
// set of nodes, replica sets are assigned by a placement strategy, node
// failures are injected, and availability is reported — the control-plane
// shape a downstream system (VM scheduler, file system master) would embed.
//
// Two strategies are offered: Combo (the paper's contribution) and Random
// (load-balanced, the baseline). The Combo strategy also implements the
// adaptation the paper leaves as future work: when its pre-planned
// capacity is exhausted, it grows the λ_x that costs the least worst-case
// availability per unit of new capacity, and freed replica sets are
// recycled for later admissions.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/adversary"
	"repro/internal/combin"
	"repro/internal/placement"
)

// Strategy selects the placement policy for a cluster.
type Strategy int

const (
	// StrategyCombo places objects using Simple(x, λ_x) packings chosen by
	// the paper's dynamic program.
	StrategyCombo Strategy = iota + 1
	// StrategyRandom places objects uniformly at random subject to the
	// load cap ℓ = ceil(r·b/n) over the expected object count.
	StrategyRandom
)

// Config configures a Cluster.
type Config struct {
	Nodes             int      // n
	Replicas          int      // r
	FatalityThreshold int      // s: replica failures that fail an object
	PlannedFailures   int      // k: failures the placement is optimized for
	ExpectedObjects   int      // initial capacity plan (may grow)
	Strategy          Strategy // placement policy
	Seed              int64    // randomness for Random strategy and greedy packings
	AllowGreedy       bool     // permit greedy packings for unconstructible orders
}

func (c Config) validate() error {
	p := placement.Params{N: c.Nodes, B: c.ExpectedObjects, R: c.Replicas,
		S: c.FatalityThreshold, K: c.PlannedFailures}
	if err := p.Validate(); err != nil {
		return err
	}
	if c.Strategy != StrategyCombo && c.Strategy != StrategyRandom {
		return fmt.Errorf("cluster: unknown strategy %d", c.Strategy)
	}
	return nil
}

// assignment records where one object's replicas live.
type assignment struct {
	x     int // the Simple(x, ·) pool the block came from; -1 for Random
	nodes []int
}

// Cluster is a simulated cluster. It is not safe for concurrent use; wrap
// it with external synchronization if shared.
type Cluster struct {
	cfg     Config
	rng     *rand.Rand
	objects map[string]assignment
	failed  map[int]bool
	loads   []int

	// Combo strategy state.
	units   []placement.Unit
	lambdas []int     // current λ_x
	pools   [][][]int // free replica sets per x

	// Random strategy state.
	loadCap int
}

// New builds a cluster and, for the Combo strategy, plans the initial
// ⟨λx⟩ for the expected object count using the paper's DP.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		objects: make(map[string]assignment),
		failed:  make(map[int]bool),
		loads:   make([]int, cfg.Nodes),
	}
	switch cfg.Strategy {
	case StrategyCombo:
		units, err := placement.DefaultUnits(cfg.Nodes, cfg.Replicas, cfg.FatalityThreshold, true)
		if err != nil {
			return nil, fmt.Errorf("cluster: planning units: %w", err)
		}
		c.units = units
		spec, _, err := placement.OptimizeCombo(cfg.ExpectedObjects, cfg.PlannedFailures,
			cfg.FatalityThreshold, units)
		if err != nil {
			return nil, fmt.Errorf("cluster: optimizing λ: %w", err)
		}
		c.lambdas = make([]int, len(spec.Lambdas))
		c.pools = make([][][]int, len(spec.Lambdas))
		for x, lambda := range spec.Lambdas {
			if lambda > 0 {
				if err := c.growPool(x, lambda); err != nil {
					return nil, err
				}
			}
		}
	case StrategyRandom:
		c.loadCap = placement.Params{N: cfg.Nodes, B: cfg.ExpectedObjects,
			R: cfg.Replicas, S: cfg.FatalityThreshold, K: cfg.PlannedFailures}.Load()
		if c.loadCap < cfg.Replicas {
			c.loadCap = cfg.Replicas
		}
	}
	return c, nil
}

// growPool raises λ_x to the given value, materializing the new replica
// sets (deltaλ/μ fresh copies of the base packing) into the free pool.
func (c *Cluster) growPool(x, newLambda int) error {
	delta := newLambda - c.lambdas[x]
	if delta <= 0 {
		return nil
	}
	u := c.units[x]
	count := int64(delta/u.Mu) * u.CapPerMu
	sub, err := placement.BuildSimple(c.cfg.Nodes, c.cfg.Replicas, x, delta, int(count),
		placement.SimpleOptions{AllowGreedy: c.cfg.AllowGreedy, Seed: c.cfg.Seed})
	if err != nil {
		return fmt.Errorf("cluster: growing Simple(%d) pool to λ=%d: %w", x, newLambda, err)
	}
	for obj := 0; obj < sub.B(); obj++ {
		c.pools[x] = append(c.pools[x], sub.ReplicaNodes(obj))
	}
	c.lambdas[x] = newLambda
	return nil
}

// AddObject admits a named object and assigns it a replica set.
func (c *Cluster) AddObject(id string) error {
	if _, exists := c.objects[id]; exists {
		return fmt.Errorf("cluster: object %q already placed", id)
	}
	var a assignment
	switch c.cfg.Strategy {
	case StrategyCombo:
		x, err := c.poolWithCapacity()
		if err != nil {
			return err
		}
		pool := c.pools[x]
		a = assignment{x: x, nodes: pool[len(pool)-1]}
		c.pools[x] = pool[:len(pool)-1]
	case StrategyRandom:
		nodes, err := c.randomNodes()
		if err != nil {
			return err
		}
		a = assignment{x: -1, nodes: nodes}
	}
	c.objects[id] = a
	for _, nd := range a.nodes {
		c.loads[nd]++
	}
	return nil
}

// poolWithCapacity returns an x with free replica sets, growing the
// cheapest pool when all are empty (the future-work adaptation): the pool
// whose λ growth costs the fewest additional worst-case failures per new
// object of capacity.
func (c *Cluster) poolWithCapacity() (int, error) {
	// Prefer the largest x with spare sets: the DP fills from high x down.
	for x := len(c.pools) - 1; x >= 0; x-- {
		if len(c.pools[x]) > 0 {
			return x, nil
		}
	}
	bestX := -1
	bestCost := 0.0
	s := c.cfg.FatalityThreshold
	k := c.cfg.PlannedFailures
	for x, u := range c.units {
		t := x + 1
		den := combin.Choose(s, t)
		if den == 0 {
			continue
		}
		oldFail := combin.FloorDiv(int64(c.lambdas[x])*combin.Choose(k, t), den)
		newFail := combin.FloorDiv(int64(c.lambdas[x]+u.Mu)*combin.Choose(k, t), den)
		cost := float64(newFail-oldFail) / float64(u.CapPerMu)
		if bestX == -1 || cost < bestCost {
			bestX = x
			bestCost = cost
		}
	}
	if bestX < 0 {
		return 0, fmt.Errorf("cluster: no pool can grow")
	}
	if err := c.growPool(bestX, c.lambdas[bestX]+c.units[bestX].Mu); err != nil {
		return 0, err
	}
	return bestX, nil
}

// randomNodes samples r distinct nodes under the load cap, growing the
// cap when the cluster outgrows its expected size.
func (c *Cluster) randomNodes() ([]int, error) {
	for attempt := 0; attempt < 3; attempt++ {
		var available []int
		for nd := 0; nd < c.cfg.Nodes; nd++ {
			if c.loads[nd] < c.loadCap {
				available = append(available, nd)
			}
		}
		if len(available) < c.cfg.Replicas {
			c.loadCap++ // organic growth beyond the planned b
			continue
		}
		nodes := make([]int, c.cfg.Replicas)
		for i := 0; i < c.cfg.Replicas; i++ {
			j := i + c.rng.Intn(len(available)-i)
			available[i], available[j] = available[j], available[i]
			nodes[i] = available[i]
		}
		sort.Ints(nodes)
		return nodes, nil
	}
	return nil, fmt.Errorf("cluster: cannot find %d nodes under load cap", c.cfg.Replicas)
}

// RemoveObject releases an object; Combo replica sets return to their
// pool for reuse.
func (c *Cluster) RemoveObject(id string) error {
	a, ok := c.objects[id]
	if !ok {
		return fmt.Errorf("cluster: object %q not placed", id)
	}
	delete(c.objects, id)
	for _, nd := range a.nodes {
		c.loads[nd]--
	}
	if a.x >= 0 {
		c.pools[a.x] = append(c.pools[a.x], a.nodes)
	}
	return nil
}

// FailNode marks a node failed. Failing an already-failed node is a no-op.
func (c *Cluster) FailNode(node int) error {
	if node < 0 || node >= c.cfg.Nodes {
		return fmt.Errorf("cluster: node %d out of range", node)
	}
	c.failed[node] = true
	return nil
}

// RestoreNode clears a node's failure.
func (c *Cluster) RestoreNode(node int) error {
	if node < 0 || node >= c.cfg.Nodes {
		return fmt.Errorf("cluster: node %d out of range", node)
	}
	delete(c.failed, node)
	return nil
}

// ObjectAvailable reports whether the object survives the current
// failures (fewer than s of its replicas are on failed nodes).
func (c *Cluster) ObjectAvailable(id string) (bool, error) {
	a, ok := c.objects[id]
	if !ok {
		return false, fmt.Errorf("cluster: object %q not placed", id)
	}
	return c.countFailedReplicas(a) < c.cfg.FatalityThreshold, nil
}

func (c *Cluster) countFailedReplicas(a assignment) int {
	failedReplicas := 0
	for _, nd := range a.nodes {
		if c.failed[nd] {
			failedReplicas++
		}
	}
	return failedReplicas
}

// Status is a cluster health report.
type Status struct {
	Objects          int
	FailedNodes      int
	AvailableObjects int
	FailedObjects    int
	MaxLoad          int
	Lambdas          []int // Combo only: current ⟨λx⟩
}

// Report summarizes the cluster under the current failure set.
func (c *Cluster) Report() Status {
	st := Status{Objects: len(c.objects), FailedNodes: len(c.failed)}
	for _, a := range c.objects {
		if c.countFailedReplicas(a) < c.cfg.FatalityThreshold {
			st.AvailableObjects++
		} else {
			st.FailedObjects++
		}
	}
	for _, l := range c.loads {
		if l > st.MaxLoad {
			st.MaxLoad = l
		}
	}
	if c.cfg.Strategy == StrategyCombo {
		st.Lambdas = append(st.Lambdas, c.lambdas...)
	}
	return st
}

// Snapshot exports the current objects as a placement.Placement (object
// order is deterministic: sorted by id) for analysis tools.
func (c *Cluster) Snapshot() (*placement.Placement, []string, error) {
	ids := make([]string, 0, len(c.objects))
	for id := range c.objects {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	pl := placement.NewPlacement(c.cfg.Nodes, c.cfg.Replicas)
	for _, id := range ids {
		if err := pl.Add(c.objects[id].nodes); err != nil {
			return nil, nil, err
		}
	}
	return pl, ids, nil
}

// WorstCase evaluates the current object set against the worst k-node
// failure (ignoring currently failed nodes; it answers "how bad could k
// fresh failures be"). budget bounds the branch-and-bound search.
func (c *Cluster) WorstCase(k int, budget int64) (adversary.Result, error) {
	pl, _, err := c.Snapshot()
	if err != nil {
		return adversary.Result{}, err
	}
	if pl.B() == 0 {
		return adversary.Result{Exact: true}, nil
	}
	return adversary.WorstCaseWith(pl, c.cfg.FatalityThreshold, k, adversary.SearchOpts{Budget: budget})
}
