// Package controller turns the one-shot batch planner into a
// long-running reconcile loop: a Controller owns the current placement,
// consumes a stream of topology mutations (node drain/fail/restore,
// weight changes, cap changes), and incrementally re-plans under a
// bounded movement budget — at most MaxMoves replica moves per step,
// each scored through a warm adversary.Session probe before it is
// allowed to happen.
//
// The safety contract is the never-degrade migration invariant: within
// one reconcile step, the worst-case damage of every intermediate
// placement — after every individual replica move — stays at or below
// the step's pre-migration baseline. A move that cannot meet the bar
// is not taken; the controller keeps serving the old placement and
// reports a typed degraded outcome instead. Candidate moves are probed
// and reverted through the session (PR 6's CSR deltas, warm seeds and
// damage memo make the revert nearly free), so planning costs a few
// thousand search states per step instead of full rebuilds.
//
// Each planned move executes as a ranger-style two-phase state machine
// (PrepareAdd -> CommitAdd -> DropOld, with Abort as the rollback arm)
// against a pluggable Actuator, under a per-call timeout and bounded
// exponential-backoff retries. Every phase transition is journaled
// write-ahead to an fsync'd JSON checkpoint, so a crashed controller
// reloads (Load) and resumes or rolls back cleanly (Recover): moves
// journaled before PhaseAdded roll back, moves at PhaseAdded roll
// forward. The fault-injecting FaultActuator drives the soak test that
// proves the invariant and the no-leak property under -race.
package controller

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/placement"
	"repro/internal/topology"
)

// NodeStatus is a node's availability in the controller's cluster
// model. The node universe is fixed at the placement's N slots;
// status is what churns.
//
//replicalint:exhaustive
type NodeStatus int

const (
	// NodeActive nodes serve replicas and accept new ones.
	NodeActive NodeStatus = iota
	// NodeDraining nodes keep serving but must shed their replicas and
	// accept no new ones (planned maintenance).
	NodeDraining
	// NodeFailed nodes are down: their replicas are at risk and
	// evacuate with top priority; they accept no new ones.
	NodeFailed
)

func (s NodeStatus) String() string {
	switch s {
	case NodeActive:
		return "active"
	case NodeDraining:
		return "draining"
	case NodeFailed:
		return "failed"
	}
	return fmt.Sprintf("NodeStatus(%d)", int(s))
}

// Outcome is a reconcile step's typed result.
//
//replicalint:exhaustive
type Outcome string

const (
	// OutcomeClean: every obligation met — nothing at risk, no cap
	// excess, invariant held throughout.
	OutcomeClean Outcome = "clean"
	// OutcomeDegradedBudget: the movement budget ran out with work
	// remaining; the controller keeps serving and continues next step.
	OutcomeDegradedBudget Outcome = "degraded-budget"
	// OutcomeDegradedStuck: actuation failed permanently (retries
	// exhausted); the old placement keeps serving and recovery retries
	// on the next step.
	OutcomeDegradedStuck Outcome = "degraded-stuck"
	// OutcomeDegradedUnsafe: work remains but no move satisfies the
	// never-degrade invariant (or has an eligible target); the old
	// placement keeps serving.
	OutcomeDegradedUnsafe Outcome = "degraded-unsafe"
)

// MoveResult is the fate of one attempted move.
//
//replicalint:exhaustive
type MoveResult string

const (
	MoveDone       MoveResult = "done"        // both phases complete, placement updated
	MoveRolledBack MoveResult = "rolled-back" // failed before the point of no return, destination aborted
	MovePending    MoveResult = "pending"     // in-flight: crash or stuck; recovery finishes it
)

// MoveRecord is the transcript of one attempted move.
type MoveRecord struct {
	Move    Move
	Result  MoveResult
	Retries int    // extra attempts beyond the first, across all phases
	Err     string // last actuation error for non-done results
}

// StepReport is one reconcile step's transcript: the consumed
// mutation, the pre-migration guarantee, every actuation, and the
// typed outcome.
type StepReport struct {
	Mutation  *Mutation    // nil for a bare Step or Recover
	Baseline  int          // worst-case damage entering the step (the guarantee)
	Damage    int          // worst-case damage after the step
	Moves     []MoveRecord // actuations attempted, in order
	Outcome   Outcome
	Reason    string // detail for degraded outcomes
	AtRisk    int    // replicas still on failed or draining nodes
	CapExcess int    // replicas above cap, summed over all domains
}

// Options tune the controller's actuation and planning behavior.
type Options struct {
	// CallTimeout bounds each actuator call (default 2s).
	CallTimeout time.Duration
	// Retries is how many times a failed call is retried (0 uses the
	// default of 2; negative means no retries).
	Retries int
	// Backoff is the first retry's delay, doubled per retry
	// (default 10ms).
	Backoff time.Duration
	// Sleep replaces time.Sleep between retries (tests inject a
	// no-op); nil uses time.Sleep.
	Sleep func(time.Duration)
	// Search configures the adversary session. Budget must be 0 (New
	// and Load reject a budget with a *BudgetedSearchError): the
	// invariant is only a proof when evaluations are exact.
	Search adversary.SearchOpts
	// CandTargets bounds the target nodes probed per source replica
	// (default 4); CandProbes bounds session probes per planned move
	// (default 48).
	CandTargets int
	CandProbes  int
	// ProbeWorkers > 1 fans each candidate class's probe batch out over
	// that many forked session workers (adversary.Session.ProbeMoves).
	// Planning is result-deterministic at any worker count: every probe
	// evaluates from the step's base state, results merge in candidate
	// order, and the class-order early exit and earliest-candidate
	// tie-break are preserved, so step reports are byte-identical to
	// the serial scan's. 0 or 1 probes serially.
	ProbeWorkers int
}

// BudgetedSearchError is the error New and Load return when
// Options.Search sets a state budget. A budgeted probe can under-report
// a move's damage, which would let a step break the never-degrade
// invariant without any error, so the controller runs exact searches
// only.
type BudgetedSearchError struct {
	Budget int64
}

func (e *BudgetedSearchError) Error() string {
	return fmt.Sprintf("controller: Options.Search.Budget = %d: the never-degrade invariant needs exact searches (Budget 0)", e.Budget)
}

// checkExact fails closed on a budgeted search configuration.
func (o Options) checkExact() error {
	if o.Search.Budget > 0 {
		return &BudgetedSearchError{Budget: o.Search.Budget}
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.CallTimeout <= 0 {
		o.CallTimeout = 2 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 10 * time.Millisecond
	}
	if o.CandTargets <= 0 {
		o.CandTargets = 4
	}
	if o.CandProbes <= 0 {
		o.CandProbes = 48
	}
	if o.ProbeWorkers <= 0 {
		o.ProbeWorkers = 1
	}
	return o
}

// Config assembles a fresh Controller.
type Config struct {
	Topo     *topology.Topology // required; carries weights and caps
	Level    int                // attack level (topology.Leaf = leaf; 0 = top)
	S        int                // replica losses that fail an object
	DFail    int                // whole-domain failures the adversary gets
	MaxMoves int                // movement budget per reconcile step (>= 1)
	Actuator Actuator           // required
	Journal  string             // checkpoint path; "" disables crash safety
	Opts     Options
}

// Controller is the reconcile loop's state. All methods are safe for
// one caller at a time (an internal lock serializes them); actuation
// is deliberately single-file — the movement budget is per step, not
// per worker.
type Controller struct {
	mu       sync.Mutex
	topo     *topology.Topology
	level    int // resolved: 0..Levels()-1
	s, dfail int
	maxMoves int
	pl       *placement.Placement
	status   []NodeStatus
	sess     *adversary.Session
	act      Actuator
	journal  string
	opts     Options
	applied  int
	baseline int
	inflight *InFlight
	// loads is every node's replica count (see nodeLoads); nil until the
	// first use.
	loads []int
	// inv is the build-tagged invariant shadow: empty (and free) in
	// regular builds, a journal-sequence and prepared-copy checker
	// under `-tags invariants`.
	inv invariantState
}

// New builds a controller owning private copies of pl and cfg.Topo (the
// topology rebuilt from its spec, as Load rebuilds it) and journals the
// initial checkpoint.
func New(pl *placement.Placement, cfg Config) (*Controller, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("controller: Config.Topo is required")
	}
	if cfg.Actuator == nil {
		return nil, fmt.Errorf("controller: Config.Actuator is required")
	}
	if cfg.MaxMoves < 1 {
		return nil, fmt.Errorf("controller: MaxMoves = %d must be >= 1", cfg.MaxMoves)
	}
	if err := cfg.Opts.checkExact(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	// The controller's own topology comes through the spec, as Load's
	// does: mutations never write the caller's, and a reload numbers
	// the domains the same way.
	topo, err := topology.ParseSpec(cfg.Topo.N, cfg.Topo.Spec())
	if err != nil {
		return nil, err
	}
	if topo.N != pl.N {
		return nil, fmt.Errorf("controller: topology covers %d nodes, placement has %d", topo.N, pl.N)
	}
	level, err := topo.ResolveLevel(cfg.Level)
	if err != nil {
		return nil, err
	}
	sess, err := adversary.NewDomainSession(pl, topo, level, cfg.S, cfg.DFail, cfg.Opts.Search)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		topo:     topo,
		level:    level,
		s:        cfg.S,
		dfail:    cfg.DFail,
		maxMoves: cfg.MaxMoves,
		pl:       pl.Clone(),
		status:   make([]NodeStatus, pl.N),
		sess:     sess,
		act:      cfg.Actuator,
		journal:  cfg.Journal,
		opts:     cfg.Opts.withDefaults(),
	}
	base, err := sess.Evaluate(nil)
	if err != nil {
		return nil, err
	}
	c.baseline = base.Failed
	if err := c.saveJournal(); err != nil {
		return nil, err
	}
	return c, nil
}

// Load rebuilds a controller from the journal at path — the crash
// restart path. The caller supplies the actuator (the data plane
// outlived the process) and then calls Recover to finish or roll back
// whatever move was in flight.
func Load(path string, act Actuator, opts Options) (*Controller, error) {
	if act == nil {
		return nil, fmt.Errorf("controller: actuator is required")
	}
	if err := opts.checkExact(); err != nil {
		return nil, err
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	topo, pl, status, err := ck.restore()
	if err != nil {
		return nil, err
	}
	sess, err := adversary.NewDomainSession(pl, topo, ck.Level, ck.S, ck.DFail, opts.Search)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		topo:     topo,
		level:    ck.Level,
		s:        ck.S,
		dfail:    ck.DFail,
		maxMoves: ck.MaxMoves,
		pl:       pl,
		status:   status,
		sess:     sess,
		act:      act,
		journal:  path,
		opts:     opts.withDefaults(),
		applied:  ck.Applied,
		baseline: ck.Baseline,
		inflight: ck.InFlight,
	}
	c.inv.init(ck.Applied, ck.InFlight)
	c.assertLoads("Load")
	return c, nil
}

// Placement returns a copy of the current logical placement.
func (c *Controller) Placement() *placement.Placement {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pl.Clone()
}

// Applied returns how many mutations the controller has consumed —
// after a crash restart, the stream position to resume from.
func (c *Controller) Applied() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied
}

// InFlightMove returns the journaled in-flight move, or nil when the
// controller is quiesced.
func (c *Controller) InFlightMove() *InFlight {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inflight == nil {
		return nil
	}
	fl := *c.inflight
	return &fl
}

// SessionStats exposes the adversary session's incremental counters.
func (c *Controller) SessionStats() adversary.SessionStats {
	return c.sess.Stats()
}

// Checkpoint snapshots the controller state in journal form.
func (c *Controller) Checkpoint() *Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checkpointLocked()
}

func (c *Controller) checkpointLocked() *Checkpoint {
	objects := make([][]int, c.pl.B())
	for obj := range objects {
		objects[obj] = c.pl.ReplicaNodes(obj)
	}
	ck := &Checkpoint{
		Version:  checkpointVersion,
		N:        c.pl.N,
		R:        c.pl.R,
		S:        c.s,
		DFail:    c.dfail,
		Level:    c.level,
		MaxMoves: c.maxMoves,
		Topo:     c.topo.Spec(),
		Status:   append([]NodeStatus(nil), c.status...),
		Objects:  objects,
		Applied:  c.applied,
		Baseline: c.baseline,
	}
	if c.inflight != nil {
		fl := *c.inflight
		ck.InFlight = &fl
	}
	return ck
}

func (c *Controller) saveJournal() error {
	// The invariant shadow audits every checkpoint the controller would
	// persist, even when journaling is disabled.
	c.inv.checkJournal(c.applied, c.inflight)
	if c.journal == "" {
		return nil
	}
	data, err := c.checkpointLocked().Encode()
	if err != nil {
		return err
	}
	return writeFileSync(c.journal, data)
}

// Apply consumes one mutation and runs a reconcile step. The returned
// error is nil for every in-protocol outcome (including degraded ones,
// which the report types); it is non-nil only for an invalid mutation
// (state unchanged), a journal write failure, or ErrCrashed from a
// fault-injecting actuator — after which the caller restarts from the
// checkpoint via Load + Recover.
func (c *Controller) Apply(mut Mutation) (*StepReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.applyMutation(mut); err != nil {
		return nil, err
	}
	c.applied++
	// The consumed mutation is journaled before any actuation, so a
	// crash-resume never replays it.
	if err := c.saveJournal(); err != nil {
		return nil, err
	}
	return c.reconcile(&mut)
}

// Step runs a reconcile step without consuming a mutation — draining
// leftover work (at-risk replicas, cap excess, a stuck move) across
// movement budgets.
func (c *Controller) Step() (*StepReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconcile(nil)
}

// Recover finishes or rolls back the journaled in-flight move after a
// crash restart, without planning new work. A no-op when quiesced.
func (c *Controller) Recover() (*StepReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := &StepReport{Baseline: c.baseline}
	if c.inflight != nil {
		rec, err := c.finishInFlight()
		rep.Moves = append(rep.Moves, rec)
		if err != nil {
			return rep, err
		}
		if rec.Result == MovePending {
			c.finishReport(rep, OutcomeDegradedStuck, "in-flight move still stuck: "+rec.Err)
			return rep, nil
		}
	}
	c.finishReport(rep, OutcomeClean, "")
	return rep, nil
}

// applyMutation folds one mutation into the cluster model. It fails —
// leaving every piece of state untouched — on out-of-range nodes or
// unknown or ambiguous domains.
func (c *Controller) applyMutation(mut Mutation) error {
	checkNode := func(nd int) error {
		if nd < 0 || nd >= c.pl.N {
			return &placement.RangeError{Kind: "node", Index: nd, Limit: c.pl.N}
		}
		return nil
	}
	switch mut.Kind {
	case MutDrain:
		if err := checkNode(mut.Node); err != nil {
			return err
		}
		c.status[mut.Node] = NodeDraining
	case MutFail:
		if err := checkNode(mut.Node); err != nil {
			return err
		}
		c.status[mut.Node] = NodeFailed
	case MutRestore:
		if err := checkNode(mut.Node); err != nil {
			return err
		}
		c.status[mut.Node] = NodeActive
	case MutWeight:
		if err := checkNode(mut.Node); err != nil {
			return err
		}
		if mut.Weight < 1 {
			return fmt.Errorf("controller: weight %d must be >= 1", mut.Weight)
		}
		if c.topo.Weights == nil {
			c.topo.Weights = make([]int, c.pl.N)
			for i := range c.topo.Weights {
				c.topo.Weights[i] = 1
			}
		}
		c.topo.Weights[mut.Node] = mut.Weight
	case MutCap:
		if err := c.topo.SetCap(mut.Domain, mut.Cap); err != nil {
			return fmt.Errorf("controller: %w", err)
		}
	default:
		return fmt.Errorf("controller: unknown mutation kind %q", mut.Kind)
	}
	return nil
}

// reconcile is one step: finish stuck work, fix the pre-migration
// baseline, then plan-probe-actuate moves until the budget, the
// admissible moves, or the work runs out.
func (c *Controller) reconcile(mut *Mutation) (*StepReport, error) {
	rep := &StepReport{Mutation: mut}

	// A move stuck from an earlier step blocks new planning: recovery
	// first, and if it is still stuck the step degrades.
	if c.inflight != nil {
		rec, err := c.finishInFlight()
		rep.Moves = append(rep.Moves, rec)
		if err != nil {
			return rep, err
		}
		if rec.Result == MovePending {
			base, eerr := c.sess.Evaluate(nil)
			if eerr == nil {
				rep.Baseline = base.Failed
			}
			c.finishReport(rep, OutcomeDegradedStuck, "in-flight move still stuck: "+rec.Err)
			return rep, nil
		}
	}

	base, err := c.sess.Evaluate(nil)
	if err != nil {
		return rep, err
	}
	c.baseline = base.Failed
	rep.Baseline = base.Failed
	curDamage := base.Failed
	witness := base.Nodes

	for moved := 0; moved < c.maxMoves; {
		pick := c.planOne(curDamage, witness)
		if pick == nil {
			break
		}
		rec, err := c.executeMove(pick.move)
		rep.Moves = append(rep.Moves, rec)
		if err != nil {
			return rep, err
		}
		if rec.Result == MovePending {
			c.finishReport(rep, OutcomeDegradedStuck, "actuation stuck: "+rec.Err)
			return rep, nil
		}
		if rec.Result == MoveRolledBack {
			c.finishReport(rep, OutcomeDegradedStuck, "actuation failed: "+rec.Err)
			return rep, nil
		}
		curDamage = pick.damage
		witness = pick.witness
		moved++
	}

	outcome, reason := OutcomeClean, ""
	if work := c.pendingWork(); work != "" {
		if len(rep.Moves) >= c.maxMoves {
			outcome, reason = OutcomeDegradedBudget, "movement budget exhausted: "+work
		} else {
			outcome, reason = OutcomeDegradedUnsafe, "no admissible move: "+work
		}
	}
	c.finishReport(rep, outcome, reason)
	return rep, nil
}

// finishReport stamps the step's closing observations.
func (c *Controller) finishReport(rep *StepReport, outcome Outcome, reason string) {
	rep.Outcome = outcome
	rep.Reason = reason
	rep.AtRisk = c.atRisk()
	rep.CapExcess = c.capExcess()
	if res, err := c.sess.Evaluate(nil); err == nil { // memo hit: the step just evaluated this placement
		rep.Damage = res.Failed
	}
}

// pick is one planned move with its probed consequences.
type pick struct {
	move    Move
	damage  int   // exact worst-case damage after the move
	witness []int // the attack witness backing damage
}

// planOne probes candidate moves through the session and returns the
// best admissible one, or nil. Candidates come one class at a time
// (eachClass): each class's candidates, up to the remaining CandProbes
// budget, are probed as one ProbeMoves batch (fanned over
// Opts.ProbeWorkers forked sessions when > 1), and no later class is
// generated once one has produced a winner, preserving the serial
// scan's class-order early exit. Urgent work — evacuating failed then
// draining nodes, shedding cap excess — is admissible at damage <= the
// step baseline; pure improvement moves must strictly lower the current
// damage. Results merge in candidate order: within a class, lower
// damage wins, ties to the earliest candidate — so the chosen move is
// byte-identical to the serial scan's at any worker count.
func (c *Controller) planOne(curDamage int, witness []int) *pick {
	var best *pick
	var moves []adversary.Move
	c.eachClass(witness, c.opts.CandProbes, func(group []candidate) bool {
		moves = moves[:0]
		for _, cand := range group {
			moves = append(moves, adversary.Move(cand.move))
		}
		for i, res := range c.sess.ProbeMoves(moves, c.opts.ProbeWorkers) {
			if res.Failed < 0 { // the placement rejected the move
				continue
			}
			damage := res.Failed
			admissible := damage <= c.baseline
			if group[i].class == classImprove {
				admissible = damage < curDamage
			}
			if !admissible {
				continue
			}
			if best == nil || damage < best.damage {
				best = &pick{move: group[i].move, damage: damage, witness: res.Nodes}
			}
		}
		return best != nil
	})
	return best
}

// Candidate classes, in planning priority order.
const (
	classEvacFail = iota
	classEvacDrain
	classCapRepair
	classImprove
)

type candidate struct {
	move  Move
	class int
}

// eachClass generates this step's possible moves one class at a time,
// in priority order: replicas leaving failed nodes, then draining
// nodes, then over-cap subtrees, then witness-guided improvement moves
// (a replica leaving the current worst-case attack's node set). Each
// class is cut to the budget its predecessors left and handed to
// visit, unless empty; generation stops once visit reports a winner or
// the budget is spent, so a step pays only for the candidates it
// probes. A class's candidates are the first min(len, budget) of its
// full list, in order. Targets are active nodes with cap headroom not
// already hosting the object, lightest replica load first (ties:
// lighter weight, then lower id), at most CandTargets per source. The
// loads, the target order, the over-cap marks and the witness set are
// computed once per call; every object's replicas are listed through
// one reused buffer, and a class none of whose source nodes hosts a
// replica is skipped outright. visit may keep nothing of group past
// its return: the next class reuses it.
func (c *Controller) eachClass(witness []int, budget int, visit func(group []candidate) (won bool)) {
	loads := c.nodeLoads()
	domLoads := c.domainLoads(loads)

	order := make([]int, c.pl.N)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(na, nb int) int {
		return cmp.Or(cmp.Compare(loads[na], loads[nb]),
			cmp.Compare(c.topo.Weight(na), c.topo.Weight(nb)),
			cmp.Compare(na, nb))
	})

	var group []candidate
	var members []int
	// gen generates one class, cut to the budget, and visits it; it
	// reports whether planning stops there.
	gen := func(class int, onNode, targetOK func(nd int) bool) bool {
		if budget <= 0 {
			return true
		}
		hosted := false
		for nd, load := range loads {
			if load > 0 && onNode(nd) {
				hosted = true
				break
			}
		}
		if !hosted {
			return false
		}
		group = group[:0]
	objects:
		for obj, o := range c.pl.Objects {
			members = o.Members(members[:0])
			for _, from := range members {
				if !onNode(from) {
					continue
				}
				targets := 0
				for _, to := range order {
					if targets >= c.opts.CandTargets {
						break
					}
					if c.status[to] != NodeActive || to == from || o.Get(to) {
						continue
					}
					if targetOK != nil && !targetOK(to) {
						continue
					}
					if !c.capHeadroom(domLoads, from, to) {
						continue
					}
					group = append(group, candidate{Move{Obj: obj, From: from, To: to}, class})
					if len(group) == budget {
						break objects
					}
					targets++
				}
			}
		}
		if len(group) == 0 {
			return false
		}
		budget -= len(group)
		return visit(group)
	}

	if gen(classEvacFail, func(nd int) bool { return c.status[nd] == NodeFailed }, nil) ||
		gen(classEvacDrain, func(nd int) bool { return c.status[nd] == NodeDraining }, nil) {
		return
	}

	// Cap repair: shed replicas from over-cap subtrees. The target must
	// leave the subtree — a same-domain shuffle is cap-neutral and would
	// livelock the repair.
	if over := c.overCapNodes(domLoads); over != nil {
		if gen(classCapRepair,
			func(nd int) bool { return over[nd] && c.status[nd] == NodeActive },
			func(nd int) bool { return !over[nd] }) {
			return
		}
	}

	// Improvement: break up the current worst-case attack.
	if len(witness) > 0 {
		inWitness := make([]bool, c.pl.N)
		for _, nd := range witness {
			inWitness[nd] = true
		}
		gen(classImprove,
			func(nd int) bool { return inWitness[nd] && c.status[nd] == NodeActive }, nil)
	}
}

// nodeLoads returns every node's replica count, kept across steps: it
// is filled from the placement at first use (after New or Load) and
// patched by applyFinishedMove, the one place the placement changes.
func (c *Controller) nodeLoads() []int {
	if c.loads == nil {
		c.loads = c.pl.NodeLoads()
	}
	return c.loads
}

// domainLoads sums replica loads per domain at every level.
func (c *Controller) domainLoads(loads []int) [][]int {
	dl := make([][]int, c.topo.Levels())
	for l := range dl {
		dl[l] = make([]int, len(c.topo.Tree[l]))
	}
	for nd, load := range loads {
		for l := range dl {
			dom, err := c.topo.DomainOfAt(nd, l)
			if err != nil {
				continue
			}
			dl[l][dom] += load
		}
	}
	return dl
}

// capHeadroom reports whether moving one replica from -> to respects
// every capped domain: each of to's ancestors that is not also an
// ancestor of from must have room for one more replica.
func (c *Controller) capHeadroom(domLoads [][]int, from, to int) bool {
	for l := range c.topo.Tree {
		df, errF := c.topo.DomainOfAt(from, l)
		dt, errT := c.topo.DomainOfAt(to, l)
		if errF != nil || errT != nil || df == dt {
			continue
		}
		if cap := c.topo.Tree[l][dt].Cap; cap > 0 && domLoads[l][dt]+1 > cap {
			return false
		}
	}
	return true
}

// overCapNodes marks the nodes inside any over-cap subtree, or returns
// nil if every cap holds.
func (c *Controller) overCapNodes(domLoads [][]int) []bool {
	var over []bool
	for l := range c.topo.Tree {
		for d, dom := range c.topo.Tree[l] {
			if dom.Cap > 0 && domLoads[l][d] > dom.Cap {
				if over == nil {
					over = make([]bool, c.pl.N)
				}
				for _, nd := range dom.Nodes {
					over[nd] = true
				}
			}
		}
	}
	return over
}

// atRisk counts replicas on failed or draining nodes.
func (c *Controller) atRisk() int {
	n := 0
	for nd, load := range c.nodeLoads() {
		if c.status[nd] != NodeActive {
			n += load
		}
	}
	return n
}

// capExcess sums replicas above cap over all domains and levels.
func (c *Controller) capExcess() int {
	domLoads := c.domainLoads(c.nodeLoads())
	excess := 0
	for l := range c.topo.Tree {
		for d, dom := range c.topo.Tree[l] {
			if dom.Cap > 0 && domLoads[l][d] > dom.Cap {
				excess += domLoads[l][d] - dom.Cap
			}
		}
	}
	return excess
}

// pendingWork describes the step's unmet obligations, or "".
func (c *Controller) pendingWork() string {
	var parts []string
	if n := c.atRisk(); n > 0 {
		parts = append(parts, fmt.Sprintf("%d replicas on failed/draining nodes", n))
	}
	if e := c.capExcess(); e > 0 {
		parts = append(parts, fmt.Sprintf("%d replicas over cap", e))
	}
	return strings.Join(parts, ", ")
}

// executeMove drives one move through the two-phase machine, journaling
// every transition write-ahead. The returned error is non-nil only for
// a crash (ErrCrashed propagates untouched, state parked in the
// journal) or a journal write failure; actuation failures are typed in
// the record (rolled-back before PhaseAdded, pending after).
func (c *Controller) executeMove(m Move) (MoveRecord, error) {
	rec := MoveRecord{Move: m, Result: MovePending}
	c.inflight = &InFlight{Move: m, Phase: PhaseIntent}
	if err := c.saveJournal(); err != nil {
		return rec, err
	}
	if err := c.callRetry(m, c.act.PrepareAdd, &rec); err != nil {
		return c.rollbackMove(rec, err)
	}
	c.inv.notePrepared()
	c.inflight.Phase = PhasePrepared
	if err := c.saveJournal(); err != nil {
		return rec, err
	}
	if err := c.callRetry(m, c.act.CommitAdd, &rec); err != nil {
		return c.rollbackMove(rec, err)
	}
	c.inv.noteCommitted()
	c.inflight.Phase = PhaseAdded
	if err := c.saveJournal(); err != nil {
		return rec, err
	}
	if err := c.callRetry(m, c.act.DropOld, &rec); err != nil {
		if errors.Is(err, ErrCrashed) {
			return rec, err
		}
		// Past the point of no return: the destination serves. The move
		// stays journaled at PhaseAdded; the next step (or Recover)
		// rolls it forward by finishing the drop.
		rec.Err = err.Error()
		return rec, nil
	}
	return c.applyFinishedMove(rec)
}

// applyFinishedMove folds a fully-actuated move into the logical
// placement and session and quiesces the journal.
func (c *Controller) applyFinishedMove(rec MoveRecord) (MoveRecord, error) {
	m := rec.Move
	if _, err := c.sess.Move(m.Obj, m.From, m.To); err != nil {
		return rec, fmt.Errorf("controller: applying finished move %v: %w", m, err)
	}
	if err := c.pl.MoveReplica(m.Obj, m.From, m.To); err != nil {
		return rec, fmt.Errorf("controller: applying finished move %v: %w", m, err)
	}
	if c.loads != nil {
		c.loads[m.From]--
		c.loads[m.To]++
	}
	c.assertLoads("applyFinishedMove")
	c.inflight = nil
	if err := c.saveJournal(); err != nil {
		return rec, err
	}
	rec.Result = MoveDone
	return rec, nil
}

// rollbackMove aborts a move that failed before the point of no
// return: the destination is scrubbed and the old placement keeps
// serving untouched.
func (c *Controller) rollbackMove(rec MoveRecord, cause error) (MoveRecord, error) {
	if errors.Is(cause, ErrCrashed) {
		return rec, cause
	}
	rec.Err = cause.Error()
	if err := c.callRetry(rec.Move, c.act.Abort, &rec); err != nil {
		if errors.Is(err, ErrCrashed) {
			return rec, err
		}
		// The rollback itself is stuck; recovery retries the abort.
		rec.Err += "; " + err.Error()
		return rec, nil
	}
	c.inv.noteAborted()
	c.inflight = nil
	if err := c.saveJournal(); err != nil {
		return rec, err
	}
	rec.Result = MoveRolledBack
	return rec, nil
}

// finishInFlight resolves a journaled in-flight move: phases before
// PhaseAdded roll back (Abort the destination — idempotent, and safe
// even when the crash landed after an unjournaled CommitAdd, because
// the logical placement still reads from the source); PhaseAdded rolls
// forward (DropOld — idempotent — then apply).
func (c *Controller) finishInFlight() (MoveRecord, error) {
	fl := c.inflight
	m := fl.Move
	rec := MoveRecord{Move: m, Result: MovePending}
	switch fl.Phase {
	case PhaseIntent, PhasePrepared:
		if err := c.callRetry(m, c.act.Abort, &rec); err != nil {
			if errors.Is(err, ErrCrashed) {
				return rec, err
			}
			rec.Err = err.Error()
			return rec, nil
		}
		c.inv.noteAborted()
		c.inflight = nil
		if err := c.saveJournal(); err != nil {
			return rec, err
		}
		rec.Result = MoveRolledBack
		return rec, nil
	case PhaseAdded:
		if err := c.callRetry(m, c.act.DropOld, &rec); err != nil {
			if errors.Is(err, ErrCrashed) {
				return rec, err
			}
			rec.Err = err.Error()
			return rec, nil
		}
		return c.applyFinishedMove(rec)
	}
	return rec, fmt.Errorf("controller: in-flight move %v has unknown phase %q", m, fl.Phase)
}

// callRetry runs one actuator call under the per-call timeout with
// bounded exponential-backoff retries. ErrCrashed propagates
// immediately (the process is "dead"); any other persistent failure
// returns the last error.
func (c *Controller) callRetry(m Move, call func(context.Context, Move) error, rec *MoveRecord) error {
	var last error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			rec.Retries++
			c.sleepFor(c.opts.Backoff << (attempt - 1))
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.opts.CallTimeout)
		err := call(ctx, m)
		cancel()
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrCrashed) {
			return err
		}
		last = err
	}
	return last
}

func (c *Controller) sleepFor(d time.Duration) {
	if c.opts.Sleep != nil {
		c.opts.Sleep(d)
		return
	}
	time.Sleep(d)
}
