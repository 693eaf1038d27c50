package placement

import (
	"fmt"
	"sort"

	"repro/internal/search"
	"repro/internal/topology"
)

// This file is the standalone capacity-feasibility checker behind the
// capped spreading pass: given per-abstract-node replica loads and
// per-domain replica caps at ANY level of the topology tree (the
// QoS/bandwidth-style constraints of Rehn-Sonigo's tree networks), it
// either certifies feasibility with an explicit witness assignment of
// abstract nodes to leaf domains, or proves infeasibility with a
// human-readable pigeonhole certificate naming the violated subtree.
// SpreadAcrossDomainsWith wires the witness in as a repair-fallback
// candidate, so its "no relabeling satisfies the domain caps" error
// fires exactly when the certificate exists.

// unlimitedCap is the internal sentinel for "no cap": far above any
// real replica total, low enough that sums of a few sentinels cannot
// overflow int64.
const unlimitedCap = int64(1) << 62

// satCapAdd adds two cap values, saturating at the unlimited sentinel
// so sums of several unlimited entries cannot overflow int64.
func satCapAdd(a, b int64) int64 {
	if s := a + b; s >= 0 && s < unlimitedCap {
		return s
	}
	return unlimitedCap
}

// CapCert explains why no assignment of node loads can satisfy a cap
// set. On a pigeonhole certificate the named domain's subtree must
// absorb at least Need replicas (every physical slot in it receives
// exactly one abstract node, and even the globally lightest nodes sum
// past the cap — or the rest of the tree is too capped to absorb the
// difference) yet allows only Cap, so Need > Cap. When infeasibility is
// instead proved by the exhaustive assignment search (a joint violation
// across several subtrees, with no single-subtree pigeonhole), the cert
// names the tightest capped subtree as the best explanation and Need is
// that subtree's minimum slot load, which may be <= Cap; Reason always
// says which kind it is.
type CapCert struct {
	Level  int    // level of the violated domain (0 = top)
	Domain int    // domain index at that level
	Name   string // domain name
	Cap    int64  // replicas the domain allows
	Need   int64  // replicas its subtree must absorb (see doc for exhaustive certs)
	Reason string // rendered explanation
}

func (c *CapCert) String() string { return c.Reason }

// leafSig identifies interchangeable leaves during the assignment
// search: same parent (hence identical ancestor state), same remaining
// slots and same remaining cap means the branches are symmetric.
type leafSig struct {
	parent int
	slots  int
	capRem int64
}

// checkCapsMaxSteps bounds the assignment search. The pigeonhole
// pre-checks plus the smallest-completion prune decide every instance
// arising from balanced placements almost immediately; the budget is a
// backstop against adversarial load multisets (the underlying problem
// contains 3-partition). Hitting it returns an error, not a
// certificate: CheckCaps never claims infeasibility it has not proved.
const checkCapsMaxSteps = 4 << 20

// CheckCaps decides whether the per-abstract-node replica loads can be
// assigned to topo's leaf domains — every leaf receiving exactly as
// many abstract nodes as it has physical slots — without any domain's
// subtree exceeding its replica cap, at any level.
//
// caps[level][di] is the cap of domain di at that level, negative for
// unlimited; a nil level means the whole level is unlimited, and a nil
// caps uses the topology's own Domain.Cap annotations (LevelCaps).
//
// Exactly one of the first two results is non-nil: a witness assignment
// assign[abstract] = leaf-domain index proving feasibility, or a
// certificate naming a violated subtree. err reports invalid arguments,
// or a search-budget exhaustion on adversarial instances (see
// checkCapsMaxSteps) — never plain infeasibility.
func CheckCaps(topo *topology.Topology, loads []int, caps [][]int) ([]int, *CapCert, error) {
	if err := topo.Validate(); err != nil {
		return nil, nil, err
	}
	n := topo.N
	if len(loads) != n {
		return nil, nil, fmt.Errorf("placement: %d loads for %d nodes", len(loads), n)
	}
	for nd, l := range loads {
		if l < 0 {
			return nil, nil, fmt.Errorf("placement: node %d load %d negative", nd, l)
		}
	}
	if caps == nil {
		caps = topo.LevelCaps()
	}
	if caps == nil {
		// No cap anywhere: the identity assignment trivially fits.
		assign := make([]int, n)
		for nd := range assign {
			assign[nd] = topo.DomainOf(nd)
		}
		return assign, nil, nil
	}
	levels := topo.Levels()
	if len(caps) != levels {
		return nil, nil, fmt.Errorf("placement: caps cover %d levels, topology has %d", len(caps), levels)
	}
	capRem := make([][]int64, levels)
	for l := 0; l < levels; l++ {
		doms := topo.Tree[l]
		if caps[l] != nil && len(caps[l]) != len(doms) {
			return nil, nil, fmt.Errorf("placement: %d caps for %d domains at level %d", len(caps[l]), len(doms), l)
		}
		capRem[l] = make([]int64, len(doms))
		for di := range doms {
			capRem[l][di] = unlimitedCap
			if caps[l] != nil && caps[l][di] >= 0 {
				capRem[l][di] = int64(caps[l][di])
			}
		}
	}

	// Sorted views of the load multiset: descending for the assignment
	// order (heavy nodes first), ascending prefix sums for the
	// pigeonhole minimum a subtree of s slots must absorb.
	nodesDesc := make([]int, n)
	for i := range nodesDesc {
		nodesDesc[i] = i
	}
	search.CanonicalOrder(nodesDesc, loads)
	prefixAsc := make([]int64, n+1)
	{
		asc := make([]int64, n)
		for i, nd := range nodesDesc {
			asc[n-1-i] = int64(loads[nd])
		}
		for i, l := range asc {
			prefixAsc[i+1] = prefixAsc[i] + l
		}
	}
	totalLoad := prefixAsc[n]

	// Pigeonhole pre-checks, for crisp certificates: (a) even the
	// globally lightest nodes overfill the subtree's slots; (b) the
	// sibling caps force more load in than the cap allows.
	for l := 0; l < levels; l++ {
		var levelCapSum int64 // saturating: unlimitedCap once any sibling is uncapped
		for _, c := range capRem[l] {
			levelCapSum = satCapAdd(levelCapSum, c)
		}
		for di, d := range topo.Tree[l] {
			c := capRem[l][di]
			if c >= unlimitedCap {
				continue
			}
			slots := len(d.Nodes)
			if need := prefixAsc[slots]; need > c {
				childWord := "nodes"
				if l < levels-1 {
					childWord = topo.LevelName(l+1) + "s"
				}
				return nil, &CapCert{
					Level: l, Domain: di, Name: d.Name, Cap: c, Need: need,
					Reason: fmt.Sprintf("%s %s allows %d replicas but its %s need %d",
						topo.LevelName(l), d.Name, c, childWord, need),
				}, nil
			}
			if levelCapSum < unlimitedCap {
				if forced := totalLoad - (levelCapSum - c); forced > c {
					return nil, &CapCert{
						Level: l, Domain: di, Name: d.Name, Cap: c, Need: forced,
						Reason: fmt.Sprintf("%s %s allows %d replicas but at least %d of the placement's %d must land in it (its sibling %ss absorb at most %d)",
							topo.LevelName(l), d.Name, c, forced, totalLoad, topo.LevelName(l), levelCapSum-c),
					}, nil
				}
			}
		}
	}

	// Ancestor chain of every leaf, per level.
	leafLevel := levels - 1
	leaves := topo.Leaves()
	anc := make([][]int, levels)
	for l := range anc {
		anc[l] = make([]int, len(leaves))
	}
	for di := range leaves {
		cur := di
		for l := leafLevel; l >= 0; l-- {
			anc[l][di] = cur
			if l > 0 {
				cur = topo.Tree[l][cur].Parent
			}
		}
	}
	slotRem := make([][]int, levels)
	for l := 0; l < levels; l++ {
		slotRem[l] = make([]int, len(topo.Tree[l]))
		for di, d := range topo.Tree[l] {
			slotRem[l][di] = len(d.Nodes)
		}
	}

	assign := make([]int, n)
	// Per-depth symmetry scratch (few distinct signatures per step; a
	// linear scan beats a per-node map allocation in a search bounded at
	// millions of steps).
	triedAt := make([][]leafSig, n)
	steps := 0
	overBudget := false
	var dfs func(idx int) bool
	dfs = func(idx int) bool {
		if idx == n {
			return true
		}
		if steps++; steps > checkCapsMaxSteps {
			overBudget = true
			return false
		}
		v := nodesDesc[idx]
		load := int64(loads[v])
		tried := triedAt[idx][:0]
		for di := range leaves {
			if slotRem[leafLevel][di] == 0 {
				continue
			}
			sig := leafSig{parent: leaves[di].Parent, slots: slotRem[leafLevel][di], capRem: capRem[leafLevel][di]}
			seen := false
			for _, t := range tried {
				if t == sig {
					seen = true
					break
				}
			}
			if seen {
				continue
			}
			tried = append(tried, sig)
			triedAt[idx] = tried
			ok := true
			for l := leafLevel; l >= 0; l-- {
				if capRem[l][anc[l][di]] < load {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for l := leafLevel; l >= 0; l-- {
				a := anc[l][di]
				capRem[l][a] -= load
				slotRem[l][a]--
			}
			// Smallest-completion prune: the slots still empty in each
			// ancestor must at least absorb the lightest unassigned
			// loads (unassigned = the ascending prefix, since nodes are
			// consumed heaviest-first).
			feasible := true
			for l := leafLevel; l >= 0; l-- {
				a := anc[l][di]
				if capRem[l][a] < unlimitedCap/2 && prefixAsc[slotRem[l][a]] > capRem[l][a] {
					feasible = false
					break
				}
			}
			if feasible {
				assign[v] = di
				if dfs(idx + 1) {
					return true
				}
			}
			for l := leafLevel; l >= 0; l-- {
				a := anc[l][di]
				capRem[l][a] += load
				slotRem[l][a]++
			}
			if overBudget {
				return false
			}
		}
		return false
	}
	if dfs(0) {
		return assign, nil, nil
	}
	if overBudget {
		return nil, nil, fmt.Errorf("placement: cap feasibility search exceeded %d states (adversarial load multiset)", checkCapsMaxSteps)
	}
	// Exhaustively infeasible without a single-subtree pigeonhole: name
	// the tightest capped subtree as the best explanation.
	bestSlack := int64(1) << 62
	var cert *CapCert
	for l := 0; l < levels; l++ {
		for di, d := range topo.Tree[l] {
			c := capRem[l][di]
			if c >= unlimitedCap {
				continue
			}
			need := prefixAsc[len(d.Nodes)]
			if slack := c - need; slack < bestSlack {
				bestSlack = slack
				cert = &CapCert{
					Level: l, Domain: di, Name: d.Name, Cap: c, Need: need,
					Reason: fmt.Sprintf("exhaustive search proves no assignment of the node loads satisfies the caps jointly; tightest capped subtree: %s %s (cap %d, minimum slot load %d)",
						topo.LevelName(l), d.Name, c, need),
				}
			}
		}
	}
	if cert == nil {
		// Unreachable: with every domain unlimited the DFS cannot fail.
		return nil, nil, fmt.Errorf("placement: cap feasibility search failed without a capped domain")
	}
	return nil, cert, nil
}

// mergedLevelCaps combines topo's own Domain.Cap annotations with extra
// per-leaf caps (the SpreadOpts.Caps convention: negative = unlimited)
// into the CheckCaps caps form, or nil when no cap exists anywhere.
func mergedLevelCaps(topo *topology.Topology, leafCaps []int) [][]int {
	caps := topo.LevelCaps()
	hasExtra := false
	for _, c := range leafCaps {
		if c >= 0 {
			hasExtra = true
			break
		}
	}
	if !hasExtra {
		return caps
	}
	if caps == nil {
		caps = make([][]int, topo.Levels())
		for l := range caps {
			caps[l] = make([]int, len(topo.Tree[l]))
			for di := range caps[l] {
				caps[l][di] = -1
			}
		}
	}
	leaf := topo.Levels() - 1
	for di, c := range leafCaps {
		if c < 0 {
			continue
		}
		if caps[leaf][di] < 0 || c < caps[leaf][di] {
			caps[leaf][di] = c
		}
	}
	return caps
}

// capTreeInt64 converts the CheckCaps caps form into the internal
// sentinel form hierMapping and the candidate filter consume.
func capTreeInt64(topo *topology.Topology, caps [][]int) [][]int64 {
	tree := make([][]int64, topo.Levels())
	for l := range tree {
		tree[l] = make([]int64, len(topo.Tree[l]))
		for di := range tree[l] {
			tree[l][di] = unlimitedCap
			if caps[l] != nil && caps[l][di] >= 0 {
				tree[l][di] = int64(caps[l][di])
			}
		}
	}
	return tree
}

// mappingRespectsCaps reports whether the relabeling mapping keeps
// every domain's subtree replica load within capTree at every level.
func mappingRespectsCaps(mapping []int, nodeLoads []int, topo *topology.Topology, capTree [][]int64) bool {
	levels := topo.Levels()
	loadAt := make([]int64, len(topo.Leaves()))
	for abstract, phys := range mapping {
		loadAt[topo.DomainOf(phys)] += int64(nodeLoads[abstract])
	}
	for l := levels - 1; l >= 0; l-- {
		for di, load := range loadAt {
			if load > capTree[l][di] {
				return false
			}
		}
		if l > 0 {
			up := make([]int64, len(topo.Tree[l-1]))
			for di, d := range topo.Tree[l] {
				up[d.Parent] += loadAt[di]
			}
			loadAt = up
		}
	}
	return true
}

// assignMapping turns a CheckCaps witness (abstract node → leaf domain)
// into a relabeling (abstract node → physical node): each leaf's
// assigned abstract nodes fill its sorted physical slots in ascending
// abstract-id order.
func assignMapping(topo *topology.Topology, assign []int) []int {
	perLeaf := make([][]int, len(topo.Leaves()))
	for abstract, di := range assign {
		perLeaf[di] = append(perLeaf[di], abstract)
	}
	mapping := make([]int, len(assign))
	for di, abstracts := range perLeaf {
		slots := append([]int(nil), topo.Leaves()[di].Nodes...)
		sort.Ints(slots)
		for i, abstract := range abstracts {
			mapping[abstract] = slots[i]
		}
	}
	return mapping
}
