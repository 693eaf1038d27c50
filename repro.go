// Package repro is a Go implementation of the replica placement strategies
// from Li, Gao & Reiter, "Replica Placement for Availability in the Worst
// Case" (ICDCS 2015, DOI 10.1109/ICDCS.2015.67).
//
// The problem: place b objects, each replicated on r of n nodes, so that
// as many objects as possible survive when an adversary — who knows the
// placement — fails the worst possible k nodes. An object fails once s of
// its replicas are on failed nodes.
//
// The library provides:
//
//   - Simple(x, λ) placements (combinatorial t-packings: no x+1 nodes
//     host more than λ common objects), with the Lemma 2 availability
//     lower bound and the Theorem 1 c-competitiveness constants;
//   - Combo placements combining Simple(x, λx) for x = 0..s-1, with the
//     paper's dynamic program for choosing ⟨λx⟩ (PlanCombo);
//   - concrete constructions backed by real Steiner systems (triple
//     systems, quadruple systems, affine/projective/spherical geometries)
//     built from scratch in internal/design;
//   - the Random load-balanced baseline and its worst-case analysis
//     (Vuln, prAvail — Theorem 2, Definition 6, Lemma 4);
//   - an exact/branch-and-bound worst-case adversary for evaluating
//     Avail(π) on concrete placements;
//   - failure-domain topologies of any depth (flat racks, zone→rack,
//     region→zone→rack and deeper, as level-indexed trees), a
//     domain-correlated adversary that fails whole domains of any
//     chosen level (WorstDomainAttack's level argument; Topology.Collapse
//     projects a level to the flat view the shared search core runs
//     on), and a
//     hierarchical domain-aware spreading post-pass
//     (SpreadAcrossDomains) that maps abstract node ids onto physical
//     nodes — optionally under per-rack replica caps — without ever
//     hurting availability under the domain adversary at any level;
//   - a cluster simulation layer (NewCluster) with object lifecycle,
//     failure injection, and adaptive capacity growth.
//
// Quick start:
//
//	spec, bound, _ := repro.PlanCombo(71, 3, 2, 4, 600)   // n, r, s, k, b
//	pl, _ := repro.Materialize(71, 3, spec, 600)
//	res, _ := repro.WorstAttack(pl, 2, 4, repro.AttackOptions{}) // exact worst case
//	fmt.Println(bound <= int64(res.Avail(600)))            // always true
//
// Three attack entry points cover the three adversary models —
// WorstAttack (any k nodes), WorstDomainAttack (any d whole domains of
// one topology level) and WorstConstrainedAttack (k nodes inside at most
// d domains) — each taking AttackOptions for the state budget, worker
// fan-out, pruning bound and object weights. See README.md for the
// start points into the packages; internal/experiments regenerates
// every figure of the paper's evaluation (replicaplace experiment
// prints them).
package repro

import (
	"io"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/placement"
	"repro/internal/randplace"
	"repro/internal/topology"
)

// Core model types, re-exported from the placement engine.
type (
	// Params are the system model parameters (n, b, r, s, k) in the
	// paper's notation.
	Params = placement.Params
	// Placement maps objects to replica sets.
	Placement = placement.Placement
	// ComboSpec is a configured Combo(⟨λx⟩) strategy.
	ComboSpec = placement.ComboSpec
	// Unit describes one Simple(x, ·) building block available to Combo.
	Unit = placement.Unit
	// SimpleOptions configures concrete Simple placement construction.
	SimpleOptions = placement.SimpleOptions
	// AttackResult reports a worst-case failure search outcome.
	AttackResult = adversary.Result
	// Topology maps nodes into a level-indexed tree of named failure
	// domains (regions, zones, racks — any depth >= 1).
	Topology = topology.Topology
	// FailureDomain is one named domain of a Topology.
	FailureDomain = topology.Domain
	// SpreadOptions tunes SpreadAcrossDomainsWith (per-domain replica
	// caps at any level, weighted-damage scoring).
	SpreadOptions = placement.SpreadOpts
	// CapCertificate explains why a cap set is unsatisfiable: the named
	// subtree must absorb more replicas than it allows.
	CapCertificate = placement.CapCert
	// DomainAttackResult reports a worst-case correlated (whole-domain)
	// failure search outcome.
	DomainAttackResult = adversary.DomainResult
	// SpreadStats summarizes replica spreading over failure domains.
	SpreadStats = placement.SpreadStats
	// SpreadTelemetry reports the spread pass's candidate-scoring work
	// (exact evaluations, memo hits, warm seeds, instance rebuilds);
	// hand one in via SpreadOptions.Telemetry.
	SpreadTelemetry = placement.SpreadTelemetry
	// AttackSession incrementally re-evaluates the worst case across
	// one-replica re-plans: CSR move deltas instead of instance
	// rebuilds, warm-started search, and exact-damage memoization by
	// a placement key each move updates in O(1).
	AttackSession = adversary.Session
	// AttackSessionResult is one AttackSession evaluation: the damage,
	// witness, exactness, and which acceleration answered it.
	AttackSessionResult = adversary.SessionResult
	// AttackSessionStats are an AttackSession's lifetime counters.
	AttackSessionStats = adversary.SessionStats
	// AttackOptions are the explicit search options (budget, worker
	// fan-out, pruning bound, object weights) the attack functions and
	// sessions take; the zero value is an exact, serial search.
	AttackOptions = adversary.SearchOpts
	// Controller is the continuous-operation reconcile loop: it owns a
	// placement, consumes topology mutations, and re-plans under a
	// bounded per-step move budget without ever letting worst-case
	// damage exceed the step's pre-migration guarantee, actuating each
	// move through a journaled two-phase machine with crash recovery.
	Controller = controller.Controller
	// ControllerConfig configures NewController (topology, adversary
	// level, move budget, data plane, journal path).
	ControllerConfig = controller.Config
	// ControllerOptions tunes a Controller's actuation (call timeout,
	// retries, backoff) and planning (search options, candidate fan-out).
	ControllerOptions = controller.Options
	// TopologyMutation is one input event to a Controller: drain, fail
	// or restore a node, reweight a node, or cap a domain.
	TopologyMutation = controller.Mutation
	// ReconcileReport is one reconcile step's transcript: baseline,
	// resulting damage, per-move actuation records, and typed outcome.
	ReconcileReport = controller.StepReport
	// Actuator is the pluggable data plane a Controller drives replica
	// moves through (PrepareAdd/CommitAdd/DropOld/Abort).
	Actuator = controller.Actuator
	// Cluster is a simulated storage cluster using these placements.
	Cluster = cluster.Cluster
	// ClusterConfig configures NewCluster.
	ClusterConfig = cluster.Config
	// ClusterStrategy selects a cluster's placement policy.
	ClusterStrategy = cluster.Strategy
)

// Cluster strategies.
const (
	StrategyCombo  = cluster.StrategyCombo
	StrategyRandom = cluster.StrategyRandom
)

// LeafLevel selects the leaf (finest) level of a topology wherever an
// attack level is taken.
const LeafLevel = topology.Leaf

// PlanCombo chooses the availability-optimal Combo configuration ⟨λx⟩ for
// placing b objects on n nodes (r replicas, fatality threshold s) against
// k worst-case node failures, using the design catalog's best known
// Steiner orders. It returns the spec together with its availability
// lower bound lbAvail_co (Lemma 3): at least that many objects survive
// ANY k node failures under the materialized placement.
func PlanCombo(n, r, s, k, b int) (ComboSpec, int64, error) {
	units, err := placement.DefaultUnits(n, r, s, false)
	if err != nil {
		return ComboSpec{}, 0, err
	}
	return placement.OptimizeCombo(b, k, s, units)
}

// PlanComboConstructible is PlanCombo restricted to Steiner systems this
// library can actually build, so that the resulting spec can be
// materialized by Materialize without greedy fallbacks.
func PlanComboConstructible(n, r, s, k, b int) (ComboSpec, int64, error) {
	units, err := placement.DefaultUnits(n, r, s, true)
	if err != nil {
		return ComboSpec{}, 0, err
	}
	return placement.OptimizeCombo(b, k, s, units)
}

// Materialize builds the concrete placement for a planned Combo spec.
func Materialize(n, r int, spec ComboSpec, b int) (*Placement, error) {
	return placement.BuildCombo(n, r, spec, b, placement.SimpleOptions{})
}

// BuildSimple builds a concrete Simple(x, λ) placement of b objects: an
// (x+1)-(n, r, λ) packing (no x+1 nodes share more than λ objects).
func BuildSimple(n, r, x, lambda, b int, opts SimpleOptions) (*Placement, error) {
	return placement.BuildSimple(n, r, x, lambda, b, opts)
}

// RandomPlacement builds the load-balanced Random baseline placement
// (Definition 4) for the given parameters.
func RandomPlacement(p Params, seed int64) (*Placement, error) {
	return randplace.Generate(p, seed)
}

// WorstAttack returns the most damaging k-node failure found for the
// placement (Definition 1: Avail(π) = b − Failed, see AttackResult.Avail).
// The zero AttackOptions searches exactly; a positive Budget bounds the
// branch-and-bound search and the result reports whether it stayed
// exact. Workers fans the search out (< 0 selects GOMAXPROCS); exact
// searches return the same damage at any worker count. ObjWeights
// scores lost weight instead of lost objects — pair it with SumWeights.
func WorstAttack(pl *Placement, s, k int, opts AttackOptions) (AttackResult, error) {
	return adversary.WorstCaseWith(pl, s, k, opts)
}

// LowerBoundSimple returns lbAvail_si(x, λ) (Lemma 2): a floor on
// Avail(π) for any Simple(x, λ) placement of b objects.
func LowerBoundSimple(b int64, k, s, x, lambda int) int64 {
	return placement.LBAvailSimple(b, k, s, x, lambda)
}

// LowerBoundCombo returns lbAvail_co(⟨λx⟩) (Lemma 3).
func LowerBoundCombo(b int64, k, s int, lambdas []int) int64 {
	return placement.LBAvailCombo(b, k, s, lambdas)
}

// PrAvail returns the number of objects probably available under Random
// placement facing a worst-case adversary (Definition 6, evaluated with
// the Theorem 2 limit).
func PrAvail(p Params) (int, error) {
	return randplace.PrAvail(p)
}

// UniformTopology spreads n nodes evenly over the given number of racks.
func UniformTopology(n, racks int) (*Topology, error) {
	return topology.Uniform(n, racks)
}

// HierarchicalTopology spreads n nodes over zones×racksPerZone racks
// grouped into zones.
func HierarchicalTopology(n, zones, racksPerZone int) (*Topology, error) {
	return topology.UniformHierarchy(n, zones, racksPerZone)
}

// TreeTopology builds a uniform failure hierarchy of any depth:
// branching is the fan-out per level from the top down, so
// TreeTopology(n, 2, 3, 4) is 2 regions × 3 zones × 4 racks. Use
// Topology.Collapse(level) for the flat view of any level, and the
// level argument of WorstDomainAttack or WorstConstrainedAttack to
// attack one.
func TreeTopology(n int, branching ...int) (*Topology, error) {
	return topology.UniformTree(n, branching...)
}

// ParseTopology parses the textual topology spec format for n nodes:
// ';'-separated leaf domains, each naming its ancestor chain
// ("rack@zone@region:nodes"). Topology.Spec renders the canonical form
// back.
func ParseTopology(n int, spec string) (*Topology, error) {
	return topology.ParseSpec(n, spec)
}

// SpreadAcrossDomains relabels a placement's abstract node ids onto
// physical nodes so each object's replicas land in maximally distinct
// failure domains. The result is never worse than the input under the
// exact d-whole-domain adversary (the identity mapping competes), and
// node-level availability is unchanged (the node adversary is label
// blind). It returns the relabeled placement and the mapping used.
func SpreadAcrossDomains(pl *Placement, topo *Topology, s, d int) (*Placement, []int, error) {
	return placement.SpreadAcrossDomains(pl, topo, s, d)
}

// SpreadAcrossDomainsWith is SpreadAcrossDomains with explicit options:
// SpreadOptions.Caps bounds the replicas each leaf domain may absorb
// (the never-worse guarantee then holds among cap-feasible layouts).
func SpreadAcrossDomainsWith(pl *Placement, topo *Topology, s, d int, opts SpreadOptions) (*Placement, []int, error) {
	return placement.SpreadAcrossDomainsWith(pl, topo, s, d, opts)
}

// DomainSpread reports per-object domain-spread statistics.
func DomainSpread(pl *Placement, topo *Topology) (SpreadStats, error) {
	return placement.DomainSpread(pl, topo)
}

// CheckCaps decides whether the per-node replica loads can be relabeled
// onto topo's physical slots without any domain's subtree exceeding its
// replica cap, at any level. caps[level][di] caps domain di of that
// level (negative = unlimited; nil caps uses the topology's own cap=
// annotations). It returns either a witness assignment (node → leaf
// domain) proving feasibility, or a human-readable pigeonhole
// certificate naming the violated subtree — never both.
func CheckCaps(topo *Topology, loads []int, caps [][]int) ([]int, *CapCertificate, error) {
	return placement.CheckCaps(topo, loads, caps)
}

// ObjectWeights derives per-object weights from the topology's node
// weights (an object inherits its hottest replica host's weight), the
// vector weighted adversaries consume; nil on unweighted topologies.
func ObjectWeights(pl *Placement, topo *Topology) ([]int64, error) {
	return placement.ObjectWeights(pl, topo)
}

// SumWeights is the weighted analogue of the object count: Σ w (or b
// itself when w is nil), the baseline weighted availability is measured
// against.
func SumWeights(w []int64, b int) int64 {
	return placement.SumWeights(w, b)
}

// WorstDomainAttack returns the most damaging failure of d whole
// domains of the given topology level (0 = top, LeafLevel = racks) —
// fail zones or regions instead of racks with no other change; the
// search core is identical at every level. Options as for WorstAttack;
// DomainAttackResult.Avail gives the availability.
func WorstDomainAttack(pl *Placement, topo *Topology, level, s, d int, opts AttackOptions) (DomainAttackResult, error) {
	return adversary.DomainWorstCaseAtWith(pl, topo, level, s, d, opts)
}

// WorstConstrainedAttack returns the most damaging k-node failure
// confined to at most d domains of the given topology level — the
// paper's adversary with a correlation budget. Options as for
// WorstAttack; a positive Budget is one pool shared across every domain
// subset, and Workers shards the subsets.
func WorstConstrainedAttack(pl *Placement, topo *Topology, level, s, k, d int, opts AttackOptions) (DomainAttackResult, error) {
	return adversary.ConstrainedWorstCaseAtWith(pl, topo, level, s, k, d, opts)
}

// NewAttackSession opens an incremental node-level adversary session on
// the placement: Move applies one replica move and returns the updated
// worst k-node attack, Evaluate answers arbitrary placements (same →
// memo, one move apart → CSR delta, otherwise one rebuild). Damage,
// witness, and exactness always equal a cold WorstAttack on the same
// placement; a chain of re-plans just gets them far cheaper.
func NewAttackSession(pl *Placement, s, k int, opts AttackOptions) (*AttackSession, error) {
	return adversary.NewNodeSession(pl, s, k, opts)
}

// NewDomainAttackSession is NewAttackSession against whole domains of
// the given topology level (moves within one attack-level domain are
// answered without searching — they cannot change the answer).
func NewDomainAttackSession(pl *Placement, topo *Topology, level, s, d int, opts AttackOptions) (*AttackSession, error) {
	return adversary.NewDomainSession(pl, topo, level, s, d, opts)
}

// NewController starts a continuous-operation reconcile loop on the
// placement: Apply feeds it one topology mutation (drain/fail/restore/
// weight/cap) and reconciles under the configured per-step move budget,
// never letting worst-case damage exceed the step's pre-migration
// guarantee; Step reconciles leftover work without a mutation. Moves
// actuate through a two-phase machine journaled write-ahead to the
// configured checkpoint — after a crash, LoadController + Recover rolls
// the in-flight move forward or back.
func NewController(pl *Placement, cfg ControllerConfig) (*Controller, error) {
	return controller.New(pl, cfg)
}

// LoadController restarts a Controller from its fsync'd journal,
// reattaching the given data plane; call Recover on the result to
// resolve any in-flight move before applying new mutations.
func LoadController(path string, act Actuator, opts ControllerOptions) (*Controller, error) {
	return controller.Load(path, act, opts)
}

// NewMemActuator builds the in-memory reference data plane, started in
// sync with pl — the strict-protocol oracle the controller tests prove
// the no-leak property against.
func NewMemActuator(pl *Placement) *controller.MemActuator {
	return controller.NewMemActuator(pl)
}

// ParseMutationScript reads a mutation script ("drain 2", "fail 10",
// "restore 2", "weight 7 3", "cap rack0 8"; # comments) into the
// mutations a Controller consumes.
func ParseMutationScript(r io.Reader) ([]TopologyMutation, error) {
	return controller.ParseScript(r)
}

// NewCluster builds a simulated storage cluster (see ClusterConfig).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(cfg)
}
