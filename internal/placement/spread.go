package placement

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/combin"
	"repro/internal/search"
	"repro/internal/topology"
)

// This file adds failure-domain awareness to placements. Combo and
// Simple construct placements over abstract node ids 0..n-1; a Topology
// names which physical nodes share a rack or zone. SpreadAcrossDomains
// chooses a relabeling (abstract id → physical node) so that each
// object's replicas land in as many distinct domains as possible,
// hardening the placement against correlated whole-domain failures while
// preserving every node-level property (the node adversary is label
// blind, so Avail under k independent failures is unchanged).

// Relabel returns a copy of pl with node ids renamed through mapping:
// replica node v becomes mapping[v]. mapping must be a permutation of
// [0, N).
func Relabel(pl *Placement, mapping []int) (*Placement, error) {
	if len(mapping) != pl.N {
		return nil, fmt.Errorf("placement: mapping covers %d nodes, want %d", len(mapping), pl.N)
	}
	seen := make([]bool, pl.N)
	for v, p := range mapping {
		if p < 0 || p >= pl.N {
			return nil, fmt.Errorf("placement: mapping[%d] = %d out of range [0, %d)", v, p, pl.N)
		}
		if seen[p] {
			return nil, fmt.Errorf("placement: mapping is not a permutation (%d hit twice)", p)
		}
		seen[p] = true
	}
	out := NewPlacement(pl.N, pl.R)
	nodes := make([]int, 0, pl.R)
	var buf []int
	for _, o := range pl.Objects {
		buf = o.Members(buf[:0])
		nodes = nodes[:0]
		for _, nd := range buf {
			nodes = append(nodes, mapping[nd])
		}
		if err := out.Add(nodes); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SpreadStats summarizes how an object's replicas spread over failure
// domains: Histogram[c] counts objects whose replicas touch exactly c
// distinct domains.
type SpreadStats struct {
	MinDomains int
	MaxDomains int
	Histogram  map[int]int
}

// DomainSpread computes per-object domain-spread statistics of pl under
// topo.
func DomainSpread(pl *Placement, topo *topology.Topology) (SpreadStats, error) {
	if err := pl.Validate(); err != nil {
		return SpreadStats{}, err
	}
	if err := topo.Validate(); err != nil {
		return SpreadStats{}, err
	}
	if topo.N != pl.N {
		return SpreadStats{}, fmt.Errorf("placement: topology covers %d nodes, placement has %d", topo.N, pl.N)
	}
	stats := SpreadStats{MinDomains: pl.N + 1, Histogram: make(map[int]int)}
	seen := make([]int, topo.NumDomains())
	var buf []int
	for obj, o := range pl.Objects {
		buf = o.Members(buf[:0])
		distinct := 0
		for _, nd := range buf {
			di := topo.DomainOf(nd)
			if seen[di] != obj+1 {
				seen[di] = obj + 1
				distinct++
			}
		}
		stats.Histogram[distinct]++
		if distinct < stats.MinDomains {
			stats.MinDomains = distinct
		}
		if distinct > stats.MaxDomains {
			stats.MaxDomains = distinct
		}
	}
	if pl.B() == 0 {
		stats.MinDomains = 0
	}
	return stats, nil
}

// DomainHits aggregates, per domain of topo, the (object, replicas
// inside the domain) hits of pl in ascending object order, plus each
// domain's total replica load. It is the one construction both domain
// search adapters — package adversary's engine instance and session,
// and this package's spread scorer — build their candidates from.
func DomainHits(pl *Placement, topo *topology.Topology) ([][]search.Hit, []int64) {
	nd := topo.NumDomains()
	perDomain := make([]map[int32]int32, nd)
	loads := make([]int64, nd)
	var buf []int
	for obj := 0; obj < pl.B(); obj++ {
		buf = pl.Objects[obj].Members(buf[:0])
		for _, node := range buf {
			di := topo.DomainOf(node)
			if perDomain[di] == nil {
				perDomain[di] = make(map[int32]int32)
			}
			perDomain[di][int32(obj)]++
			loads[di]++
		}
	}
	hits := make([][]search.Hit, nd)
	for di := 0; di < nd; di++ {
		h := make([]search.Hit, 0, len(perDomain[di]))
		for obj, c := range perDomain[di] {
			h = append(h, search.Hit{Obj: obj, C: c})
		}
		sort.Slice(h, func(a, b int) bool { return h[a].Obj < h[b].Obj })
		hits[di] = h
	}
	return hits, loads
}

// maxExactSpreadSubsets caps the C(D, d) enumeration inside
// SpreadAcrossDomains; beyond it, candidates are ranked by the
// top-loaded-domains proxy instead of the exact worst case.
const maxExactSpreadSubsets = 200_000

// SpreadOpts tunes SpreadAcrossDomainsWith; the zero value matches
// SpreadAcrossDomains.
type SpreadOpts struct {
	// Caps[di] bounds the total replicas the relabeled placement may put
	// in leaf domain di (a rack has nodes, but also disks and uplinks);
	// a negative entry means unlimited. Non-nil Caps must cover every
	// leaf domain. Caps combine (by min) with the topology's own
	// Domain.Cap annotations, which may sit at any level — zone and
	// region caps are enforced too. Candidate mappings that would exceed
	// a cap are discarded — including the identity, so the never-worse
	// guarantee then holds relative to the best cap-feasible candidate
	// instead of the oblivious layout. CheckCaps decides feasibility: its
	// witness assignment always competes as a repair fallback, so the
	// infeasibility error fires exactly when CheckCaps proves a
	// certificate (no relabeling at all can satisfy the caps).
	Caps []int
	// Weighted scores every candidate by its weighted worst-case damage
	// (lost weight, with per-object weights derived from the topology's
	// node weights via ObjectWeights on each candidate's own labeling)
	// instead of the failed-object count. On unweighted topologies it is
	// a no-op. The never-worse guarantee then holds in weight units:
	// the result never loses more weight than the identity at any level.
	Weighted bool
	// Telemetry, when non-nil, accumulates the candidate-scoring search
	// counters (exact evaluations, memo hits, warm seeds, rebuilds)
	// across every exact level. See SpreadTelemetry.
	Telemetry *SpreadTelemetry
	// ProbeWorkers > 1 deals each exact level's unique candidates to
	// that many stripes, scored on their own goroutines. Selection is
	// unchanged at any worker count — candidate damages are exact, so
	// the winning mapping is identical to the serial scan's — and so are
	// the Evals/MemoHits/Rebuilds totals; only WarmSeeds may differ,
	// since warm witnesses chain along a stripe. 0 or 1 is the serial
	// scan: one stripe.
	ProbeWorkers int
}

// SpreadTelemetry reports how much search work SpreadAcrossDomainsWith's
// candidate scoring actually performed. Hand one in via
// SpreadOpts.Telemetry to have the counters accumulated across every
// exact level: every candidate is an evaluation, answered either by an
// earlier candidate of the same level with the same weighted placement
// signature (a memo hit, no search) or by a rebuild and an exact
// search; warm seeds count the searches that started from the
// previous search's re-validated witness instead of greedy alone.
type SpreadTelemetry struct {
	Evals     int64 // exact candidate evaluations requested
	MemoHits  int64 // duplicates of an earlier candidate, no search run
	WarmSeeds int64 // searches seeded by the previous search's witness
	Rebuilds  int64 // instance reinitializations (one per unique candidate)
}

// SpreadAcrossDomains relabels pl's abstract node ids onto physical
// nodes so that each object's r replicas land in maximally distinct
// failure domains, and returns the relabeled placement together with the
// mapping used (mapping[abstract] = physical).
//
// Candidate mappings are evaluated — the identity, a striped and a
// conflict-minimizing greedy assignment over the leaf domains, and (on
// hierarchies) their level-recursive variants, which separate each
// object's replicas across the top level first and then recursively
// within each subtree. Each candidate is scored by its worst-case
// d-domain damage at every level of the tree (leaf level first;
// d clamps to the level's domain count), candidates worse than the
// identity at any level are discarded, and the survivor with the
// lexicographically least damage vector wins (ties: candidate order,
// identity first). Because the identity competes, the result is never
// worse than the domain-oblivious placement under the exact adversary
// at ANY level of the hierarchy whenever C(D_level, d) <= 200000 (the
// exact evaluation regime; larger searches fall back to a
// top-loaded-domains proxy, which preserves the guarantee in spirit
// but not provably).
func SpreadAcrossDomains(pl *Placement, topo *topology.Topology, s, d int) (*Placement, []int, error) {
	return SpreadAcrossDomainsWith(pl, topo, s, d, SpreadOpts{})
}

// SpreadAcrossDomainsWith is SpreadAcrossDomains with explicit options
// (per-leaf-domain replica caps).
func SpreadAcrossDomainsWith(pl *Placement, topo *topology.Topology, s, d int, opts SpreadOpts) (*Placement, []int, error) {
	if err := pl.Validate(); err != nil {
		return nil, nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, nil, err
	}
	if topo.N != pl.N {
		return nil, nil, fmt.Errorf("placement: topology covers %d nodes, placement has %d", topo.N, pl.N)
	}
	if s < 1 || s > pl.R {
		return nil, nil, fmt.Errorf("placement: s = %d must satisfy 1 <= s <= r = %d", s, pl.R)
	}
	if d < 1 || d > topo.NumDomains() {
		return nil, nil, fmt.Errorf("placement: d = %d must satisfy 1 <= d <= domains = %d", d, topo.NumDomains())
	}
	if opts.Caps != nil && len(opts.Caps) != topo.NumDomains() {
		return nil, nil, fmt.Errorf("placement: %d caps for %d leaf domains", len(opts.Caps), topo.NumDomains())
	}

	// Under caps, CheckCaps decides feasibility up front: a certificate
	// means NO relabeling can fit, so the error names it; otherwise its
	// witness assignment always competes, and every heuristic candidate
	// that happens to fit the caps competes too (the identity among
	// them, preserving never-worse when it fits).
	var capTree [][]int64
	var nodeLoads, assign []int
	var capErr error
	if levelCaps := mergedLevelCaps(topo, opts.Caps); levelCaps != nil {
		capTree, nodeLoads = capTreeInt64(topo, levelCaps), pl.NodeLoads()
		var cert *CapCert
		if assign, cert, capErr = CheckCaps(topo, nodeLoads, levelCaps); cert != nil {
			return nil, nil, fmt.Errorf("placement: no relabeling satisfies the domain caps: %s", cert)
		}
	}
	var candidates [][]int
	add := func(mapping []int, ok bool) {
		if ok {
			candidates = append(candidates, mapping)
		}
	}
	fits := func(mapping []int) bool {
		return capTree == nil || mappingRespectsCaps(mapping, nodeLoads, topo, capTree)
	}
	identity := make([]int, pl.N)
	for i := range identity {
		identity[i] = i
	}
	add(identity, fits(identity))
	identityIdx := len(candidates) - 1 // -1 when the identity breaks a cap
	leaf := topo.Levels() - 1
	for _, greedy := range []bool{false, true} {
		m, _ := hierMapping(pl, topo, leaf, greedy, nil) // uncapped: always ok
		add(m, fits(m))
	}
	if leaf > 0 || capTree != nil {
		for _, greedy := range []bool{false, true} {
			add(hierMapping(pl, topo, 0, greedy, capTree))
		}
	}
	if assign != nil {
		add(assignMapping(topo, assign), true)
	}
	if len(candidates) == 0 {
		// Only reachable under caps, when CheckCaps exhausted its search
		// budget (capErr != nil) and no heuristic candidate fits either.
		if capErr != nil {
			return nil, nil, capErr
		}
		return nil, nil, fmt.Errorf("placement: no relabeling satisfies the domain caps")
	}

	// Candidates are scored by weighted damage when asked (per-object
	// weights derived from each candidate's own labeling — relabeling
	// moves objects on and off the hot nodes).
	useWeights := opts.Weighted && topo.Weighted()

	// Score every candidate at every level, finest first. Choose
	// returns 0 on int64 overflow — treat that as "too many subsets",
	// not as under the cap.
	type levelEval struct {
		flat  *topology.Topology
		d     int
		exact bool
	}
	var levels []levelEval
	for l := topo.Levels() - 1; l >= 0; l-- {
		flat := topo
		if l != topo.Levels()-1 {
			var err error
			if flat, err = topo.Collapse(l); err != nil {
				return nil, nil, err
			}
		}
		dl := d
		if nd := flat.NumDomains(); dl > nd {
			dl = nd
		}
		subsets := combin.Choose(flat.NumDomains(), dl)
		levels = append(levels, levelEval{flat: flat, d: dl, exact: subsets > 0 && subsets <= maxExactSpreadSubsets})
	}
	mapped := make([]*Placement, len(candidates))
	objWs := make([][]int64, len(candidates))
	for i, mapping := range candidates {
		m, err := Relabel(pl, mapping)
		if err != nil {
			return nil, nil, err
		}
		mapped[i] = m
		if useWeights {
			if objWs[i], err = ObjectWeights(m, topo); err != nil {
				return nil, nil, err
			}
		}
	}
	// Score level by level so each exact level's scorers carry their
	// warm witness across candidates: candidate mappings permute one
	// placement, so consecutive candidates share worst attacks (warm
	// seeds) and duplicates — the identity most often — share whole
	// evaluations (memo hits).
	tel := opts.Telemetry
	if tel == nil {
		tel = &SpreadTelemetry{}
	}
	damages := make([][]int, len(candidates))
	for i := range damages {
		damages[i] = make([]int, len(levels))
	}
	for li, le := range levels {
		if le.exact {
			scoreExactLevel(damages, li, mapped, objWs, le.flat, s, le.d, opts.ProbeWorkers, tel)
		} else {
			for i := range candidates {
				damages[i][li] = topLoadedDamage(mapped[i], le.flat, s, le.d, objWs[i])
			}
		}
	}
	bestIdx := -1
	for i := range candidates {
		if identityIdx >= 0 && i != identityIdx && worseAtAnyLevel(damages[i], damages[identityIdx]) {
			continue
		}
		if bestIdx < 0 || lessVec(damages[i], damages[bestIdx]) {
			bestIdx = i
		}
	}
	return mapped[bestIdx], candidates[bestIdx], nil
}

// scoreExactLevel fills damages[i][li] with every candidate's exact
// worst d-domain damage under flat (lost weight under objWs[i]).
// Candidates are deduplicated by placement key (Signature, under their
// own weights) first, then the unique placements are dealt to
// min(workers, unique) deterministic stripes, each scored on its own
// goroutine by a spreadScorer that chains its warm witness along the
// stripe. One stripe is the serial scan. Damages are exact, so the
// filled vector — hence the spread pass's selection — is identical at
// any worker count.
func scoreExactLevel(damages [][]int, li int, mapped []*Placement, objWs [][]int64,
	flat *topology.Topology, s, d, workers int, tel *SpreadTelemetry) {
	n := len(mapped)
	sigs := make([]Sig, n)
	first := make(map[Sig]int, n) // signature → first candidate index
	var uniq []int                // first-candidate indexes, in candidate order
	for i := range mapped {
		sigs[i] = Signature(mapped[i], objWs[i])
		if _, ok := first[sigs[i]]; !ok {
			first[sigs[i]] = i
			uniq = append(uniq, i)
		}
	}
	stripes := min(max(workers, 1), len(uniq))
	scored := make([]int, n) // damage per first-candidate index
	warm := make([]int64, stripes)
	var wg sync.WaitGroup
	for st := 0; st < stripes; st++ {
		wg.Add(1)
		go func(st int) {
			defer wg.Done()
			sc := newSpreadScorer(s, d, mapped[0].B())
			for u := st; u < len(uniq); u += stripes {
				i := uniq[u]
				scored[i] = sc.damage(mapped[i], flat, objWs[i])
			}
			warm[st] = sc.warmSeeds
		}(st)
	}
	wg.Wait()
	for i := range mapped {
		damages[i][li] = scored[first[sigs[i]]]
	}
	tel.Evals += int64(n)
	tel.MemoHits += int64(n - len(uniq))
	tel.Rebuilds += int64(len(uniq))
	for _, w := range warm {
		tel.WarmSeeds += w
	}
}

// spreadScorer evaluates one stripe of spread candidates at one
// (level, d) through a single reused search instance: each candidate
// re-Assigns the same backing arrays, every domain kept, and the
// previous candidate's witness — by domain id, so it survives the
// re-sort — warm-seeds the exact branch-and-bound.
type spreadScorer struct {
	d         int
	in        *search.HitInstance
	last      []int // previous witness, in domain-id space
	warmSeeds int64
}

func newSpreadScorer(s, d, b int) *spreadScorer {
	return &spreadScorer{d: d, in: search.NewHitInstance(s, b)}
}

// damage returns the exact worst d-domain damage of pl under flat —
// the same number package adversary's domain engines compute (lost
// weight under a non-nil w).
func (sc *spreadScorer) damage(pl *Placement, flat *topology.Topology, w []int64) int {
	byDomain, _ := DomainHits(pl, flat)
	sc.in.Assign(sc.d, byDomain, w, nil, true)
	seed, warm := search.WarmSeed(sc.in, sc.last)
	if warm {
		sc.warmSeeds++
	}
	res := search.BranchAndBound(sc.in, seed, search.NewBudget(0), 1, search.BoundResidual)
	sc.last = sc.in.Units(res.Sel)
	return res.Failed
}

// worseAtAnyLevel reports whether a does more damage than b at any
// level — the per-level never-worse filter against the identity.
func worseAtAnyLevel(a, b []int) bool {
	for i := range a {
		if a[i] > b[i] {
			return true
		}
	}
	return false
}

// lessVec is strict lexicographic order on damage vectors (leaf level
// first).
func lessVec(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// hierMapping assigns abstract node ids, heaviest first, to physical
// nodes one level at a time from level start down: ids are distributed
// over the domains of level start first — striped round-robin, so
// consecutive (and typically co-hosting) ids land in different domains,
// or, when greedy is set, each to the domain currently holding the
// fewest replicas of its objects (ties: most free slots, then lowest
// index) — then recursively within each subtree, so each object's
// replicas separate at the coarsest level before the finer ones. From
// the leaf level it is the flat striped or conflict-greedy mapping over
// the leaf domains; from level 0 the top-down one. capTree, when non-nil,
// bounds the replica load each domain's subtree may receive at EVERY
// level (unlimitedCap = no cap; a subtree's effective budget is the
// minimum of its own cap and its children's summed budgets); an
// infeasible distribution reports ok = false and the candidate is
// dropped.
func hierMapping(pl *Placement, topo *topology.Topology, start int, greedy bool, capTree [][]int64) ([]int, bool) {
	loads := pl.NodeLoads()
	numLevels := topo.Levels()
	// children[level][di] lists the level+1 domains nested in di.
	children := make([][][]int, numLevels-1)
	for level := 0; level < numLevels-1; level++ {
		children[level] = make([][]int, len(topo.Tree[level]))
		for ci, child := range topo.Tree[level+1] {
			children[level][child.Parent] = append(children[level][child.Parent], ci)
		}
	}
	// capOf[level][di]: the subtree's effective replica budget — its own
	// cap tightened by the children's summed budgets (saturating at the
	// unlimited sentinel so several unlimited children cannot overflow
	// into a negative budget); nil when caps are unlimited.
	var capOf [][]int64
	if capTree != nil {
		capOf = make([][]int64, numLevels)
		capOf[numLevels-1] = append([]int64(nil), capTree[numLevels-1]...)
		for level := numLevels - 2; level >= 0; level-- {
			capOf[level] = make([]int64, len(topo.Tree[level]))
			for ci, child := range topo.Tree[level+1] {
				capOf[level][child.Parent] = satCapAdd(capOf[level][child.Parent], capOf[level+1][ci])
			}
			for di, own := range capTree[level] {
				if own < capOf[level][di] {
					capOf[level][di] = own
				}
			}
		}
	}
	var objsOf [][]int32
	if greedy {
		objsOf = make([][]int32, pl.N)
		var buf []int
		for obj := 0; obj < pl.B(); obj++ {
			buf = pl.Objects[obj].Members(buf[:0])
			for _, nd := range buf {
				objsOf[nd] = append(objsOf[nd], int32(obj))
			}
		}
	}

	mapping := make([]int, pl.N)
	var assign func(level int, doms []int, ids []int) bool
	assign = func(level int, doms []int, ids []int) bool {
		buckets := make([][]int, len(doms))
		slotsFree := make([]int, len(doms))
		loadUsed := make([]int64, len(doms))
		for i, di := range doms {
			slotsFree[i] = len(topo.Tree[level][di].Nodes)
		}
		eligible := func(i, id int) bool {
			if slotsFree[i] == 0 {
				return false
			}
			return capOf == nil || loadUsed[i]+int64(loads[id]) <= capOf[level][doms[i]]
		}
		place := func(i, id int) {
			buckets[i] = append(buckets[i], id)
			slotsFree[i]--
			loadUsed[i] += int64(loads[id])
		}
		if greedy {
			// placed[obj*len(doms)+i] = replicas of obj already routed to
			// branch i: route each id to the branch sharing the fewest of
			// its objects (ties: most free slots, then lowest index).
			placed := make([]int32, pl.B()*len(doms))
			for _, id := range ids {
				bestI, bestConflict, bestFree := -1, int64(1)<<62, -1
				for i := range doms {
					if !eligible(i, id) {
						continue
					}
					var conflict int64
					for _, obj := range objsOf[id] {
						conflict += int64(placed[int(obj)*len(doms)+i])
					}
					if conflict < bestConflict || (conflict == bestConflict && slotsFree[i] > bestFree) {
						bestI, bestConflict, bestFree = i, conflict, slotsFree[i]
					}
				}
				if bestI < 0 {
					return false
				}
				place(bestI, id)
				for _, obj := range objsOf[id] {
					placed[int(obj)*len(doms)+bestI]++
				}
			}
		} else {
			next := 0
			for _, id := range ids {
				picked := -1
				for step := 0; step < len(doms); step++ {
					i := (next + step) % len(doms)
					if eligible(i, id) {
						picked = i
						break
					}
				}
				if picked < 0 {
					return false
				}
				place(picked, id)
				next = (picked + 1) % len(doms)
			}
		}
		for i, di := range doms {
			if level == numLevels-1 {
				slots := append([]int(nil), topo.Tree[level][di].Nodes...)
				sort.Ints(slots)
				for j, id := range buckets[i] {
					mapping[id] = slots[j]
				}
			} else if len(buckets[i]) > 0 {
				if !assign(level+1, children[level][di], buckets[i]) {
					return false
				}
			}
		}
		return true
	}
	top := make([]int, len(topo.Tree[start]))
	for i := range top {
		top[i] = i
	}
	if !assign(start, top, nodesByLoad(pl)) {
		return nil, false
	}
	return mapping, true
}

// nodesByLoad returns abstract node ids by descending replica load,
// ties broken by ascending id (deterministic).
func nodesByLoad(pl *Placement) []int {
	order := make([]int, pl.N)
	for i := range order {
		order[i] = i
	}
	search.CanonicalOrder(order, pl.NodeLoads())
	return order
}

// topLoadedDamage is the cheap candidate-ranking proxy used when C(D, d)
// is too large to enumerate: the damage of failing the d domains
// carrying the most replicas (a valid attack, hence a lower bound on the
// true worst case). A non-nil w scores in weight units: domains rank by
// weighted load, damage is the failed objects' total weight.
func topLoadedDamage(pl *Placement, topo *topology.Topology, s, d int, w []int64) int {
	loads := make([]int64, topo.NumDomains())
	var buf []int
	for obj, o := range pl.Objects {
		buf = o.Members(buf[:0])
		hit := int64(1)
		if w != nil {
			hit = w[obj]
		}
		for _, nd := range buf {
			loads[topo.DomainOf(nd)] += hit
		}
	}
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	search.CanonicalOrder(order, loads)
	failed := topo.FailedSet(order[:d])
	if w == nil {
		return pl.FailedObjects(failed, s)
	}
	damage := 0
	for obj, o := range pl.Objects {
		if o.IntersectCount(failed) >= s {
			damage += int(w[obj])
		}
	}
	return damage
}
