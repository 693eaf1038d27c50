// Package topology models hierarchical correlated failure domains for
// the n nodes of a placement as a level-indexed tree of named domains:
// region → zone → rack, any depth >= 1. The paper's adversary fails any
// k independent nodes; real outages take out whole racks, power
// domains, zones, or regions at once — the hierarchical
// correlated-failure setting of Mills, Chandrasekaran & Mittal
// (arXiv:1701.01539, arXiv:1503.02654).
//
// A Topology is a Tree of levels: Tree[0] is the coarsest level (e.g.
// regions), Tree[Levels()-1] the leaves (racks). Every leaf domain owns
// a disjoint set of nodes covering [0, n); every domain below the top
// level nests in exactly one parent on the level above, and an interior
// domain's node set is the union of its children's (derived once, when
// the topology is first validated). A depth-1 tree is the flat
// racks-only topology; depth 2 is the zone→rack hierarchy.
//
// Three consumers feed off the tree:
//
//   - the domain-correlated adversary (package adversary), which fails
//     whole domains at a chosen level instead of individual nodes,
//   - the domain-aware placement post-pass (package placement), which
//     relabels a placement's abstract node ids onto physical nodes so
//     each object's replicas spread across the top level first and then
//     recursively within each subtree, and
//   - Collapse(level), which projects any level to a flat depth-1
//     topology — the one operation the level-taking engines need, so
//     the generic search core runs unchanged at every depth.
//
// Topologies are constructed with UniformTree (any depth), the
// backward-compatible Uniform / UniformHierarchy / New wrappers, or
// NewTree from explicit levels; or parsed from a compact textual spec
// (ParseSpec) in which each leaf names its ancestor chain
// ("rack@zone@region:nodes"). Spec renders the canonical form of that
// spec, and ParseSpec∘Spec is the identity on valid topologies
// (fuzz-tested at every depth).
//
// # Heterogeneity: node weights and domain capacity caps
//
// Real clusters are not uniform: nodes differ in the traffic they
// serve, and racks, zones and regions are capacity-bounded (disks,
// uplinks, power). Two optional annotations model this — the
// tree-network capacity setting of Rehn-Sonigo (QoS and bandwidth
// constraints in tree networks) on the level-indexed tree:
//
//   - Weights assigns every node an integer weight >= 1 (nil = all 1).
//     Weighted adversaries (package adversary, SearchOpts.ObjWeights)
//     score lost weight instead of lost object count; package
//     placement's ObjectWeights derives per-object weights from them.
//   - Domain.Cap bounds the total replicas a domain's subtree may hold
//     (0 = unlimited, the zero value). Caps may sit at ANY level: a
//     leaf rack, a zone, a region. Package placement's CheckCaps
//     decides whether a placement's node loads can be assigned under
//     every cap, and SpreadAcrossDomainsWith enforces them.
//
// # Spec grammar
//
// The full grammar, each leaf domain one ';'-separated entry:
//
//	entry    = domain { "@" domain } ":" nodes
//	domain   = name [ " cap=" N ]          (N >= 1 replicas, any level)
//	nodes    = token { "," token }
//	token    = id [ "-" id ] [ "*" w ]     (w >= 1, node weight)
//
// Example: "r0 cap=3@za cap=5:0*2,1-3;r1@za cap=5:4-6;r2@zb:7*4,8-9".
// A cap annotation may be repeated at later mentions of the same
// domain, but must then agree; the canonical Spec renders it at every
// mention. Unit weights and zero caps render as nothing — a topology
// without annotations round-trips through the PR-4 grammar unchanged.
package topology

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/combin"
)

// Leaf is the sentinel level value meaning "the leaf (finest) level" —
// Levels()-1 — accepted everywhere a level is taken. It keeps callers
// depth-agnostic: the default adversary and spread behavior is leaf
// level at any depth.
const Leaf = -1

// Domain is one named failure domain at some level of a Topology: a set
// of nodes that fail together. Parent indexes the level above (-1 at
// the top level). Leaf domains list their nodes; an interior domain's
// Nodes is the derived union of its children's, computed once when the
// topology is indexed. Cap, when positive, bounds the total replicas the
// domain's whole subtree may hold (0, the zero value, means unlimited)
// — the per-domain capacity constraint enforced by package placement's
// CheckCaps and SpreadAcrossDomainsWith.
type Domain struct {
	Name   string
	Parent int
	Nodes  []int
	Cap    int
}

// Topology maps n nodes into a level-indexed tree of named failure
// domains. Tree[0] is the coarsest level, Tree[len(Tree)-1] the leaf
// level whose domains partition the nodes. Weights, when non-nil,
// assigns each node an integer weight >= 1 (heterogeneous clusters: a
// hot node serves more traffic than a cold one); nil means every node
// weighs 1.
//
// The first Validate (NewTree runs it) indexes the tree: from then on
// N, the domain names, the parents and the leaf node lists are fixed,
// and only the annotations — Weights and the domains' Caps — may still
// change. Every later Validate re-checks those and writes nothing, so
// engines may share one validated topology across goroutines.
type Topology struct {
	N       int
	Tree    [][]Domain
	Weights []int

	indexOnce sync.Once
	indexErr  error
	domainOf  []int // node -> leaf domain index
}

// NewTree builds and validates a topology from explicit levels. Every
// node in [0, n) must appear in exactly one leaf domain; every non-top
// domain's Parent must index the level above (top-level parents are
// -1); every interior domain must have at least one child; names must
// be non-empty and unique within their level. Interior Nodes need not
// be filled in — validation derives them from the leaves.
func NewTree(n int, tree [][]Domain) (*Topology, error) {
	t := &Topology{N: n, Tree: tree}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// New builds a depth-1 (zones nil) or depth-2 topology from leaf
// domains, whose Parent fields index zones. It is the backward-
// compatible constructor predating arbitrary-depth trees.
func New(n int, domains []Domain, zones []string) (*Topology, error) {
	if len(zones) == 0 {
		return NewTree(n, [][]Domain{domains})
	}
	top := make([]Domain, len(zones))
	for i, z := range zones {
		top[i] = Domain{Name: z, Parent: -1}
	}
	return NewTree(n, [][]Domain{top, domains})
}

// index builds the node→domain map and the derived interior node sets,
// validating the tree's structural invariants.
func (t *Topology) index() error {
	if t.N < 1 {
		return fmt.Errorf("topology: n = %d must be positive", t.N)
	}
	if len(t.Tree) < 1 {
		return fmt.Errorf("topology: no levels")
	}
	for level, doms := range t.Tree {
		if len(doms) < 1 {
			return fmt.Errorf("topology: level %d has no domains", level)
		}
		names := make(map[string]bool, len(doms))
		for di, d := range doms {
			if d.Name == "" {
				return fmt.Errorf("topology: level %d domain %d has no name", level, di)
			}
			if strings.ContainsAny(d.Name, ":;,@-*= \t\n") {
				return fmt.Errorf("topology: domain name %q contains reserved characters", d.Name)
			}
			if names[d.Name] {
				return fmt.Errorf("topology: duplicate domain name %q at level %d", d.Name, level)
			}
			names[d.Name] = true
			if level == 0 {
				if d.Parent != -1 {
					return fmt.Errorf("topology: top-level domain %q has parent %d, want -1", d.Name, d.Parent)
				}
			} else if d.Parent < 0 || d.Parent >= len(t.Tree[level-1]) {
				return fmt.Errorf("topology: domain %q parent %d out of range [0, %d) at level %d",
					d.Name, d.Parent, len(t.Tree[level-1]), level-1)
			}
		}
	}
	leaves := t.Tree[len(t.Tree)-1]
	t.domainOf = slices.Repeat([]int{-1}, t.N)
	for di, d := range leaves {
		if len(d.Nodes) == 0 {
			return fmt.Errorf("topology: domain %q is empty", d.Name)
		}
		for _, nd := range d.Nodes {
			if nd < 0 || nd >= t.N {
				return fmt.Errorf("topology: domain %q node %d out of range [0, %d)", d.Name, nd, t.N)
			}
			if t.domainOf[nd] != -1 {
				return fmt.Errorf("topology: node %d in both %q and %q",
					nd, leaves[t.domainOf[nd]].Name, d.Name)
			}
			t.domainOf[nd] = di
		}
	}
	for nd, di := range t.domainOf {
		if di == -1 {
			return fmt.Errorf("topology: node %d not in any domain", nd)
		}
	}
	// Derive interior node sets bottom-up and insist every interior
	// domain has at least one child (childless domains are inexpressible
	// in the spec format, so they would break the round-trip).
	for level := len(t.Tree) - 2; level >= 0; level-- {
		for di := range t.Tree[level] {
			t.Tree[level][di].Nodes = nil
		}
		for _, child := range t.Tree[level+1] {
			d := &t.Tree[level][child.Parent]
			d.Nodes = append(d.Nodes, child.Nodes...)
		}
		for di, d := range t.Tree[level] {
			if len(d.Nodes) == 0 {
				return fmt.Errorf("topology: level %d domain %q has no children", level, d.Name)
			}
			sort.Ints(t.Tree[level][di].Nodes)
		}
	}
	return nil
}

// Validate indexes the tree on its first call (see Topology), then
// checks the annotations callers may still set: the node weights (one
// per node, each >= 1) and the domain caps (each >= 0).
func (t *Topology) Validate() error {
	t.indexOnce.Do(func() { t.indexErr = t.index() })
	if t.indexErr != nil {
		return t.indexErr
	}
	if t.Weights != nil && len(t.Weights) != t.N {
		return fmt.Errorf("topology: %d node weights for %d nodes", len(t.Weights), t.N)
	}
	for nd, w := range t.Weights {
		if w < 1 {
			return fmt.Errorf("topology: node %d weight %d must be >= 1", nd, w)
		}
	}
	for _, doms := range t.Tree {
		for _, d := range doms {
			if d.Cap < 0 {
				return fmt.Errorf("topology: domain %q cap %d must be >= 0 (0 = unlimited)", d.Name, d.Cap)
			}
		}
	}
	return nil
}

// SetCap sets the replica cap of the one domain named name, at whatever
// level it sits (0 = unlimited). It fails, changing nothing, when no
// domain or domains at two levels carry the name, or when cap < 0.
func (t *Topology) SetCap(name string, cap int) error {
	if cap < 0 {
		return fmt.Errorf("topology: domain %q cap %d must be >= 0 (0 = unlimited)", name, cap)
	}
	var found *Domain
	for level := range t.Tree {
		for di := range t.Tree[level] {
			if d := &t.Tree[level][di]; d.Name == name {
				if found != nil {
					return fmt.Errorf("topology: domain name %q is ambiguous across levels", name)
				}
				found = d
			}
		}
	}
	if found == nil {
		return fmt.Errorf("topology: no domain named %q", name)
	}
	found.Cap = cap
	return nil
}

// levelWord is the display name given to whole levels and to the
// top-level domains of UniformTree topologies, by distance from the
// leaves: racks, then zones, then regions, then numbered tiers.
func levelWord(distFromLeaf int) string {
	switch distFromLeaf {
	case 0:
		return "rack"
	case 1:
		return "zone"
	case 2:
		return "region"
	default:
		return fmt.Sprintf("tier%d", distFromLeaf-2)
	}
}

// levelLetter is the single-letter tag used for path-encoded domain
// names below the top level ("z0r1" = rack 1 of zone 0).
func levelLetter(distFromLeaf int) string {
	switch distFromLeaf {
	case 0:
		return "r"
	case 1:
		return "z"
	case 2:
		return "g"
	default:
		return "t"
	}
}

// UniformTree builds a uniform topology of arbitrary depth: branching
// lists the fan-out per level from the top down, so UniformTree(n, 4)
// is 4 racks, UniformTree(n, 3, 2) is 3 zones of 2 racks, and
// UniformTree(n, 2, 3, 4) is 2 regions × 3 zones × 4 racks. The n
// nodes are spread over the leaf domains as evenly as possible
// (contiguous blocks, the first n mod leaves racks one node larger).
// Top-level domains are named by their level word ("rack0", "zone0",
// "region0", ...); deeper domains path-encode their ancestry with
// per-level letters ("z0r1", "g0z1r2"), which keeps depth-1 and
// depth-2 output identical to Uniform and UniformHierarchy.
func UniformTree(n int, branching ...int) (*Topology, error) {
	depth := len(branching)
	if depth == 0 {
		return nil, fmt.Errorf("topology: no branching factors")
	}
	leaves := 1
	for level, b := range branching {
		if b < 1 {
			return nil, fmt.Errorf("topology: branching %d at level %d must be positive", b, level)
		}
		leaves *= b
	}
	if leaves > n {
		return nil, fmt.Errorf("topology: %d leaf domains exceed n = %d nodes", leaves, n)
	}
	tree := make([][]Domain, depth)
	count := 1
	for level, b := range branching {
		count *= b
		tree[level] = make([]Domain, count)
		for i := range tree[level] {
			parent := -1
			if level > 0 {
				parent = i / b
			}
			tree[level][i] = Domain{Name: uniformName(branching, level, i), Parent: parent}
		}
	}
	next := 0
	for i := range tree[depth-1] {
		size := n / leaves
		if i < n%leaves {
			size++
		}
		nodes := make([]int, size)
		for j := range nodes {
			nodes[j] = next
			next++
		}
		tree[depth-1][i].Nodes = nodes
	}
	return NewTree(n, tree)
}

// uniformName names domain i of the given level in a UniformTree:
// "<levelword><i>" at the top, path-encoded letters below.
func uniformName(branching []int, level, i int) string {
	depth := len(branching)
	if level == 0 {
		return fmt.Sprintf("%s%d", levelWord(depth-1), i)
	}
	// Decompose i into per-level ordinals along the path from the top.
	ordinals := make([]int, level+1)
	for l := level; l >= 0; l-- {
		ordinals[l] = i % branching[l]
		i /= branching[l]
	}
	var sb strings.Builder
	for l, ord := range ordinals {
		sb.WriteString(levelLetter(depth - 1 - l))
		sb.WriteString(strconv.Itoa(ord))
	}
	return sb.String()
}

// Uniform spreads n nodes over numDomains racks named rack0..rackD-1 as
// evenly as possible: contiguous blocks, the first n mod numDomains racks
// one node larger.
func Uniform(n, numDomains int) (*Topology, error) {
	if numDomains < 1 || numDomains > n {
		return nil, fmt.Errorf("topology: %d domains must satisfy 1 <= domains <= n = %d", numDomains, n)
	}
	return UniformTree(n, numDomains)
}

// UniformHierarchy builds a two-level topology: numZones zones named
// zone0.., each holding racksPerZone racks, with the n nodes spread over
// the zones·racks grid as evenly as possible. Rack names are zI.rJ-style
// ("z0r0", "z0r1", ...).
func UniformHierarchy(n, numZones, racksPerZone int) (*Topology, error) {
	if numZones < 1 || racksPerZone < 1 {
		return nil, fmt.Errorf("topology: zones = %d, racks/zone = %d must be positive", numZones, racksPerZone)
	}
	if racks := numZones * racksPerZone; racks > n {
		return nil, fmt.Errorf("topology: %d racks exceed n = %d nodes", racks, n)
	}
	return UniformTree(n, numZones, racksPerZone)
}

// Levels returns the depth of the hierarchy: 1 for flat racks, 2 for
// zone→rack, 3 for region→zone→rack, and so on.
func (t *Topology) Levels() int { return len(t.Tree) }

// ResolveLevel maps a caller-facing level (0 = top, Levels()-1 = leaf,
// or the Leaf sentinel) to a concrete index, validating range.
func (t *Topology) ResolveLevel(level int) (int, error) {
	if level == Leaf {
		return t.Levels() - 1, nil
	}
	if level < 0 || level >= t.Levels() {
		return 0, fmt.Errorf("topology: level %d out of range [0, %d) (or topology.Leaf)", level, t.Levels())
	}
	return level, nil
}

// LevelName returns the display word for a level by its distance from
// the leaves: the leaf level is "rack", the one above "zone", then
// "region", then numbered tiers. Invalid levels return "level?".
func (t *Topology) LevelName(level int) string {
	l, err := t.ResolveLevel(level)
	if err != nil {
		return "level?"
	}
	return levelWord(t.Levels() - 1 - l)
}

// Leaves returns the leaf (finest) level's domains — the partition of
// the nodes the flat consumers (DomainOf, FailedSet, placement's
// DomainHits) operate on.
func (t *Topology) Leaves() []Domain { return t.Tree[len(t.Tree)-1] }

// NumDomains returns the number of leaf failure domains.
func (t *Topology) NumDomains() int { return len(t.Leaves()) }

// NumDomainsAt returns the number of domains at the given level.
func (t *Topology) NumDomainsAt(level int) (int, error) {
	l, err := t.ResolveLevel(level)
	if err != nil {
		return 0, err
	}
	return len(t.Tree[l]), nil
}

// DomainOf returns the index of the leaf domain holding node nd.
func (t *Topology) DomainOf(nd int) int { return t.domainOf[nd] }

// Weight returns node nd's weight: Weights[nd], or 1 when no weights
// are set (the homogeneous default).
func (t *Topology) Weight(nd int) int {
	if t.Weights == nil {
		return 1
	}
	return t.Weights[nd]
}

// Weighted reports whether any node carries a non-unit weight; false
// means weighted damage degenerates to the plain object count.
func (t *Topology) Weighted() bool {
	for _, w := range t.Weights {
		if w != 1 {
			return true
		}
	}
	return false
}

// LevelCaps returns the per-level capacity caps in the convention
// placement.CheckCaps consumes: caps[level][di] is the replica cap of
// domain di at that level, -1 where unlimited. It returns nil when no
// domain of the tree carries a cap.
func (t *Topology) LevelCaps() [][]int {
	any := false
	caps := make([][]int, len(t.Tree))
	for level, doms := range t.Tree {
		caps[level] = make([]int, len(doms))
		for di, d := range doms {
			if d.Cap > 0 {
				caps[level][di] = d.Cap
				any = true
			} else {
				caps[level][di] = -1
			}
		}
	}
	if !any {
		return nil
	}
	return caps
}

// DomainOfAt returns the index of the domain holding node nd at the
// given level, chasing parent pointers up from the leaf.
func (t *Topology) DomainOfAt(nd, level int) (int, error) {
	l, err := t.ResolveLevel(level)
	if err != nil {
		return 0, err
	}
	di := t.domainOf[nd]
	for cur := t.Levels() - 1; cur > l; cur-- {
		di = t.Tree[cur][di].Parent
	}
	return di, nil
}

// FailedSet returns the node bitset covered by the given leaf domain
// indices — the node-level footprint of a correlated domain failure.
func (t *Topology) FailedSet(domains []int) *combin.Bitset {
	leaves := t.Leaves()
	bs := combin.NewBitset(t.N)
	for _, di := range domains {
		for _, nd := range leaves[di].Nodes {
			bs.Set(nd)
		}
	}
	return bs
}

// DomainNames maps leaf domain indices to their names.
func (t *Topology) DomainNames(domains []int) []string {
	return t.DomainNamesAt(Leaf, domains)
}

// DomainNamesAt maps domain indices at the given level to their names
// (an invalid level yields nil — pair it with ResolveLevel when the
// level is untrusted).
func (t *Topology) DomainNamesAt(level int, domains []int) []string {
	l, err := t.ResolveLevel(level)
	if err != nil {
		return nil
	}
	names := make([]string, len(domains))
	for i, di := range domains {
		names[i] = t.Tree[l][di].Name
	}
	return names
}

// Collapse projects the given level to a flat depth-1 topology: one
// leaf domain per level-l domain, in level order, covering the union of
// its subtree's nodes. Collapse is how the level-taking adversary
// engines and the hierarchical spreading pass reduce any depth to the
// flat instance the generic search core runs on; Collapse(Leaf) is the
// flat projection of the leaves themselves.
func (t *Topology) Collapse(level int) (*Topology, error) {
	l, err := t.ResolveLevel(level)
	if err != nil {
		return nil, err
	}
	domains := make([]Domain, len(t.Tree[l]))
	for i, d := range t.Tree[l] {
		domains[i] = Domain{Name: d.Name, Parent: -1, Nodes: append([]int(nil), d.Nodes...), Cap: d.Cap}
	}
	flat, err := NewTree(t.N, [][]Domain{domains})
	if err != nil {
		return nil, err
	}
	// Node weights survive the projection (weighted adversaries run on
	// collapsed views); caps above or below level l do not — a flat view
	// can only carry its own level's constraint.
	if t.Weights != nil {
		flat.Weights = append([]int(nil), t.Weights...)
	}
	return flat, nil
}

// MaxDomainSize returns the node count of the largest leaf domain.
func (t *Topology) MaxDomainSize() int {
	maxSize := 0
	for _, d := range t.Leaves() {
		if len(d.Nodes) > maxSize {
			maxSize = len(d.Nodes)
		}
	}
	return maxSize
}

// Spec renders the canonical textual form parsed by ParseSpec: leaf
// domains separated by ';', each "name:nodes" with the name extended by
// its '@'-separated ancestor chain ("rack@zone@region") below depth 1,
// and nodes as comma-separated values with a-b ranges over sorted node
// ids. Example: "z0r0@zone0:0-3;z0r1@zone0:4-6;z1r0@zone1:7-9".
// Capped domains render " cap=N" after their name at every mention;
// nodes with non-unit weight render a "*w" suffix, with ranges breaking
// wherever the weight changes.
func (t *Topology) Spec() string {
	var sb strings.Builder
	leafLevel := t.Levels() - 1
	writeName := func(d Domain) {
		sb.WriteString(d.Name)
		if d.Cap > 0 {
			sb.WriteString(" cap=")
			sb.WriteString(strconv.Itoa(d.Cap))
		}
	}
	for i, d := range t.Leaves() {
		if i > 0 {
			sb.WriteByte(';')
		}
		writeName(d)
		for level, p := leafLevel-1, d.Parent; level >= 0; level-- {
			sb.WriteByte('@')
			writeName(t.Tree[level][p])
			p = t.Tree[level][p].Parent
		}
		sb.WriteByte(':')
		nodes := append([]int(nil), d.Nodes...)
		sort.Ints(nodes)
		for j := 0; j < len(nodes); {
			if j > 0 {
				sb.WriteByte(',')
			}
			// A range extends while ids stay consecutive AND weights equal:
			// the weight suffix annotates the whole token.
			w := t.Weight(nodes[j])
			k := j
			for k+1 < len(nodes) && nodes[k+1] == nodes[k]+1 && t.Weight(nodes[k+1]) == w {
				k++
			}
			sb.WriteString(strconv.Itoa(nodes[j]))
			if k > j {
				sb.WriteByte('-')
				sb.WriteString(strconv.Itoa(nodes[k]))
			}
			if w != 1 {
				sb.WriteByte('*')
				sb.WriteString(strconv.Itoa(w))
			}
			j = k + 1
		}
	}
	return sb.String()
}

// parseDomainSeg splits one '@'-chain segment into its domain name and
// optional annotations: space-separated "cap=N" tokens after the name
// (N >= 1; the only annotation currently defined).
func parseDomainSeg(seg string) (name string, cap int, err error) {
	fields := strings.Fields(seg)
	if len(fields) == 0 {
		return "", 0, fmt.Errorf("topology: empty domain name in %q", seg)
	}
	name = fields[0]
	for _, f := range fields[1:] {
		val, ok := strings.CutPrefix(f, "cap=")
		if !ok {
			return "", 0, fmt.Errorf("topology: unknown annotation %q on domain %q", f, name)
		}
		c, cerr := strconv.Atoi(val)
		if cerr != nil || c < 1 {
			return "", 0, fmt.Errorf("topology: bad cap %q on domain %q (want a positive integer)", val, name)
		}
		if cap > 0 && cap != c {
			return "", 0, fmt.Errorf("topology: domain %q annotated with two caps", name)
		}
		cap = c
	}
	return name, cap, nil
}

// ParseSpec parses the Spec format for n nodes. Every leaf domain
// carries the same-length ancestor chain (deepest first), fixing the
// tree depth; ancestor domains are declared implicitly by first use and
// ordered by first appearance within their level, and naming an
// ancestor under two different parents is an error. Domains may carry
// "cap=N" annotations (any level; repeated mentions must agree) and
// node tokens a "*w" weight suffix — see the package doc for the full
// grammar.
func ParseSpec(n int, spec string) (*Topology, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("topology: empty spec")
	}
	var (
		tree     [][]Domain
		levelIdx []map[string]int
		depth    = -1
		weights  []int
	)
	for _, part := range strings.Split(spec, ";") {
		head, nodesPart, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("topology: domain %q missing ':'", part)
		}
		chain := strings.Split(head, "@")
		name, leafCap, err := parseDomainSeg(chain[0])
		if err != nil {
			return nil, err
		}
		if depth == -1 {
			depth = len(chain)
			tree = make([][]Domain, depth)
			levelIdx = make([]map[string]int, depth)
			for l := range levelIdx {
				levelIdx[l] = make(map[string]int)
			}
		} else if len(chain) != depth {
			return nil, fmt.Errorf("topology: domain %q names %d levels, others name %d",
				name, len(chain), depth)
		}
		// Resolve the ancestor chain top-down: chain[depth-1] is the
		// top-level name, chain[1] the leaf's parent.
		parent := -1
		for level := 0; level < depth-1; level++ {
			anc, ancCap, err := parseDomainSeg(chain[depth-1-level])
			if err != nil {
				return nil, err
			}
			idx, seen := levelIdx[level][anc]
			if !seen {
				idx = len(tree[level])
				tree[level] = append(tree[level], Domain{Name: anc, Parent: parent, Cap: ancCap})
				levelIdx[level][anc] = idx
			} else {
				if tree[level][idx].Parent != parent {
					return nil, fmt.Errorf("topology: domain %q appears under two parents at level %d", anc, level)
				}
				if ancCap > 0 {
					if c := tree[level][idx].Cap; c > 0 && c != ancCap {
						return nil, fmt.Errorf("topology: domain %q annotated with caps %d and %d", anc, c, ancCap)
					}
					tree[level][idx].Cap = ancCap
				}
			}
			parent = idx
		}
		var nodes []int
		for _, tok := range strings.Split(nodesPart, ",") {
			body, wstr, hasW := strings.Cut(tok, "*")
			w := 1
			if hasW {
				if w, err = strconv.Atoi(wstr); err != nil || w < 1 {
					return nil, fmt.Errorf("topology: bad weight %q in domain %q", tok, name)
				}
			}
			lo, hi, isRange := strings.Cut(body, "-")
			a, err := strconv.Atoi(lo)
			if err != nil {
				return nil, fmt.Errorf("topology: bad node %q in domain %q", tok, name)
			}
			b := a
			if isRange {
				if b, err = strconv.Atoi(hi); err != nil {
					return nil, fmt.Errorf("topology: bad range %q in domain %q", tok, name)
				}
			}
			if b < a {
				return nil, fmt.Errorf("topology: descending range %q in domain %q", tok, name)
			}
			if b-a >= n {
				return nil, fmt.Errorf("topology: range %q wider than n = %d", tok, n)
			}
			for v := a; v <= b; v++ {
				nodes = append(nodes, v)
				if w != 1 && v >= 0 && v < n {
					// Out-of-range ids fall through to NewTree's validation.
					if weights == nil {
						weights = make([]int, n)
						for i := range weights {
							weights[i] = 1
						}
					}
					weights[v] = w
				}
			}
		}
		tree[depth-1] = append(tree[depth-1], Domain{Name: name, Parent: parent, Nodes: nodes, Cap: leafCap})
	}
	topo, err := NewTree(n, tree)
	if err != nil {
		return nil, err
	}
	if weights != nil {
		topo.Weights = weights
		if err := topo.Validate(); err != nil {
			return nil, err
		}
	}
	return topo, nil
}
