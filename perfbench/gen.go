package main

// Seeded input generators. Every input a workload feeds the program is
// built here from the workload seed alone, with the benchmark's own
// random source: the program only ever receives the generated values
// (replica lists, mutation streams, topology specs), never the seed.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/controller"
)

// Shared model parameters: every workload places r = 3 replicas and an
// object fails once s = 2 of them are down.
const (
	modelR = 3
	modelS = 2
)

// certify: the paper's node model and a zone-confined domain model.
const (
	certNodeN, certNodeB, certNodeK = 71, 600, 4
	certDomN, certDomB, certDomD    = 600, 1500, 3
	certZones, certRacksPerZone     = 15, 20
	certPool                        = 160 // query pairs decoded per set-up
)

// certifyPair is one certify operation's inputs: a random placement for
// the node-failure query and a zone-confined placement for the
// rack-failure query, each as replica node lists per object.
type certifyPair struct {
	Node   [][]int `json:"node"`
	Domain [][]int `json:"domain"`
}

// genCertify builds the certify stream: count pairs of distinct seeded
// placements. Node placements put each object on 3 distinct nodes drawn
// uniformly from 71; domain placements first draw one of the 15 zones,
// then 3 distinct nodes inside it, so every object lives in one zone.
func genCertify(seed int64, count int) []certifyPair {
	rng := rand.New(rand.NewSource(seed ^ 0x6365727469667921))
	perZone := certDomN / certZones
	pairs := make([]certifyPair, count)
	for i := range pairs {
		node := make([][]int, certNodeB)
		for o := range node {
			node[o] = distinct(rng, certNodeN, modelR, 0)
		}
		dom := make([][]int, certDomB)
		for o := range dom {
			dom[o] = distinct(rng, perZone, modelR, rng.Intn(certZones)*perZone)
		}
		pairs[i] = certifyPair{Node: node, Domain: dom}
	}
	return pairs
}

// distinct draws r distinct values from [off, off+n), sorted.
func distinct(rng *rand.Rand, n, r, off int) []int {
	out := make([]int, 0, r)
	for len(out) < r {
		v := off + rng.Intn(n)
		dup := false
		for _, u := range out {
			dup = dup || u == v
		}
		if !dup {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// reconcile: 240 nodes in 6 zones x 8 racks of 5, b = 800 objects.
const (
	recN, recB, recPlanK  = 240, 800, 4
	recZones, recRacks    = 6, 8
	recDFail, recMaxMoves = 2, 2
	recEpochs             = 80 // epochs per trace; a 20 s run uses about ten
	recRackSize           = recN / (recZones * recRacks)
	recCapShed            = 16 // replicas a tightened zone cap makes its zone shed
)

// recZoneName follows topology.UniformHierarchy's naming, which the
// program uses for the reconcile cluster.
func recZoneName(z int) string { return fmt.Sprintf("zone%d", z) }

// recRackNodes lists leaf rack ri's nodes: UniformHierarchy assigns
// contiguous blocks, and 240 nodes over 48 racks divide evenly.
func recRackNodes(ri int) []int {
	first := ri * recRackSize
	out := make([]int, recRackSize)
	for i := range out {
		out[i] = first + i
	}
	return out
}

// recCycle is the fixed order of one epoch's episodes. The seed picks
// each episode's racks, nodes, weights and zone, never the mix, so the
// cost of a run does not depend on which kinds a seed happened to draw.
// The cap comes first, on the fresh cluster, so the capped zone's load
// is its initial load and every cap sheds the same recCapShed replicas.
// Zone loads are far from even (the initial combo puts 664 replicas in
// one zone and 277 in another), so a cap at a fixed share of the fair
// load took fifty settle steps in one zone and none in another.
var recCycle = []string{"cap", "drain", "fail", "weight", "drain", "fail", "weight", "drain"}

// cycler deals indices from seeded permutations of [0, n), reshuffling
// when one is used up, so a run visits every rack and zone about equally
// however the seed orders them.
type cycler struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func (c *cycler) next() int {
	if len(c.perm) == 0 {
		c.perm = c.rng.Perm(c.n)
	}
	v := c.perm[0]
	c.perm = c.perm[1:]
	return v
}

// genReconcile builds the reconcile mutation trace as recEpochs epochs
// of one recCycle each, every epoch replayed on a fresh cluster whose
// zones hold zoneLoads replicas: an operator lifecycle in episodes
// (after cluster.py's node and shard lifecycle) of rolling drains (each
// node of a rack drained, then restored, one at a time), correlated
// whole-rack failures restored at the end of the next episode, node
// reweights, and a zone cap tightened recCapShed replicas under the
// zone's load and lifted at the end of the next episode. The cycle never
// overlaps two failed racks or two caps, so at most one rack is out, at
// most one zone is capped, every cap leaves room to spare in the other
// zones, and nothing is pending when the cycle ends.
//
// Epochs bound the horizon: over thousands of mutations the placement
// wanders, and a long trace can drift into stretches where no move is
// safe and every step is a cheap degraded-unsafe no-op, so how much a
// run costs would depend on where its seed's trajectory went.
func genReconcile(seed int64, zoneLoads []int) [][]controller.Mutation {
	rng := rand.New(rand.NewSource(seed ^ 0x7265636f6e63696c))
	drains := &cycler{rng: rng, n: recZones * recRacks}
	fails := &cycler{rng: rng, n: recZones * recRacks}
	zones := &cycler{rng: rng, n: recZones}
	epochs := make([][]controller.Mutation, recEpochs)
	for e := range epochs {
		var out []controller.Mutation
		emit := func(m controller.Mutation) { out = append(out, m) }
		var restore []int // failed rack, restored after the next episode
		lift := ""        // capped zone, lifted after the next episode
		for _, episode := range recCycle {
			pendingRestore, pendingLift := restore, lift
			restore, lift = nil, ""
			switch episode {
			case "drain":
				for _, nd := range recRackNodes(drains.next()) {
					emit(controller.Mutation{Kind: controller.MutDrain, Node: nd})
					emit(controller.Mutation{Kind: controller.MutRestore, Node: nd})
				}
			case "fail":
				restore = recRackNodes(fails.next())
				for _, nd := range restore {
					emit(controller.Mutation{Kind: controller.MutFail, Node: nd})
				}
			case "weight":
				for i := 0; i < 2; i++ {
					emit(controller.Mutation{Kind: controller.MutWeight, Node: rng.Intn(recN), Weight: 1 + rng.Intn(4)})
				}
			case "cap":
				z := zones.next()
				lift = recZoneName(z)
				emit(controller.Mutation{Kind: controller.MutCap, Domain: lift, Cap: zoneLoads[z] - recCapShed})
			}
			for _, nd := range pendingRestore {
				emit(controller.Mutation{Kind: controller.MutRestore, Node: nd})
			}
			if pendingLift != "" {
				emit(controller.Mutation{Kind: controller.MutCap, Domain: pendingLift, Cap: 0})
			}
		}
		epochs[e] = out
	}
	return epochs
}

// plan: a request grid over cluster size, failure budget and topology
// shape. Every grid cell appears equally often in a pool, in a seeded
// order, so the cost mix (and so the latency percentiles) is the same
// for every seed while the requests themselves differ.
var (
	planNs     = []int{24, 36, 48, 72, 96, 120, 160, 200, 240}
	planKs     = []int{3, 4}
	planDs     = []int{1, 2}
	planShapes = []string{"flat", "zone", "region"}
)

const planPool = 1024 // requests decoded per set-up

// planRequest is one plan operation's inputs, shaped like a
// `replicaplace plan -topo ...` invocation.
type planRequest struct {
	N, K, B, D int
	Level      int    // attacked level (topology.Leaf or 0)
	Spec       string // topology spec with weights and caps annotated
}

// genPlan builds count plan requests stratified over the grid. Each
// cell's successive requests step through ten b values spanning
// [2n, 7n], through the topology fan-outs of the cell's shape, and
// weight some nodes 2-4 in one request of three and cap one domain at
// 125% of its fair share of replicas in another, all from seeded
// offsets; trees are attacked at the top level in one request of four.
// The seed picks the offsets, the order, the node layout and the
// weighted nodes and capped domain, so requests differ between seeds
// while every seed gets the same cost mix.
func genPlan(seed int64, count int) []planRequest {
	rng := rand.New(rand.NewSource(seed ^ 0x706c616e67726964))
	type cell struct {
		n, k, d int
		shape   string
		off     [4]int // per-cell offsets of the b, weight, cap and level cycles
		seen    int
	}
	var cells []*cell
	for _, n := range planNs {
		for _, k := range planKs {
			for _, d := range planDs {
				for _, sh := range planShapes {
					c := &cell{n: n, k: k, d: d, shape: sh}
					for i := range c.off {
						c.off[i] = rng.Intn(12)
					}
					cells = append(cells, c)
				}
			}
		}
	}
	out := make([]planRequest, 0, count)
	var order []int
	for len(out) < count {
		if len(order) == 0 {
			order = rng.Perm(len(cells))
		}
		c := cells[order[0]]
		order = order[1:]
		j := c.seen
		c.seen++
		req := planRequest{N: c.n, K: c.k, D: c.d, B: 2*c.n + 5*c.n*((j+c.off[0])%10)/9, Level: -1}
		weighted, capped := (j+c.off[1])%3 == 0, (j+c.off[2])%3 == 1
		if c.shape != "flat" && (j+c.off[3])%4 == 0 {
			req.Level = 0
		}
		req.Spec = genSpec(rng, c.n, req.B, c.shape, j, weighted, capped)
		out = append(out, req)
	}
	return out
}

// genSpec renders a topology spec for n nodes: variant v picks the
// fan-out (racks of 2 to 6 nodes, up to 16 racks, for flat trees), a
// shuffled node order is split evenly over the leaves, interior
// domains are named by their path, and optionally some nodes are
// weighted and one domain capped.
func genSpec(rng *rand.Rand, n, b int, shape string, v int, weighted, capped bool) string {
	var fan []int // branching from the top level down
	switch shape {
	case "flat":
		fan = []int{clamp(n/(2+v%5), 3, 16)}
	case "zone":
		fan = []int{2 + v%3, 2 + (v/3)%3}
	default:
		fan = []int{2, 2 + v%2, 2 + (v/2)%2}
	}
	leaves := 1
	for _, f := range fan {
		leaves *= f
	}
	perm := rng.Perm(n)
	weight := make([]int, n)
	for nd := range weight {
		weight[nd] = 1
		if weighted && rng.Intn(8) == 0 {
			weight[nd] = 2 + rng.Intn(3)
		}
	}
	// path[l] is the leaf's index among its level-l ancestors' siblings.
	names := func(leaf int) []string {
		var chain []string
		idx := leaf
		for l := len(fan) - 1; l >= 0; l-- {
			chain = append(chain, fmt.Sprintf("%s%d", levelWord(len(fan)-1-l), idx))
			idx /= fan[l]
		}
		return chain // deepest first, as the spec grammar wants
	}
	// Choose the capped domain: one domain at a random level, capped at
	// 125% of its fair share r*b*|nodes|/n (rounded up).
	capLevel, capIdx := -1, -1
	if capped {
		capLevel = rng.Intn(len(fan))
		width := 1
		for l := 0; l <= capLevel; l++ {
			width *= fan[l]
		}
		capIdx = rng.Intn(width)
	}
	var leafNodes [][]int
	for leaf := 0; leaf < leaves; leaf++ {
		lo, hi := leaf*n/leaves, (leaf+1)*n/leaves
		nodes := append([]int(nil), perm[lo:hi]...)
		sort.Ints(nodes)
		leafNodes = append(leafNodes, nodes)
	}
	// Nodes under the capped domain, for its fair share.
	capNodes := 0
	if capped {
		span := leaves
		for l := 0; l <= capLevel; l++ {
			span /= fan[l]
		}
		for leaf := capIdx * span; leaf < (capIdx+1)*span; leaf++ {
			capNodes += len(leafNodes[leaf])
		}
	}
	capValue := (5*modelR*b*capNodes + 4*n - 1) / (4 * n)
	var sb strings.Builder
	for leaf, nodes := range leafNodes {
		if leaf > 0 {
			sb.WriteByte(';')
		}
		chain := names(leaf)
		for depth, name := range chain {
			if depth > 0 {
				sb.WriteByte('@')
			}
			sb.WriteString(name)
			level := len(fan) - 1 - depth
			if level == capLevel && ancestorIndex(leaf, fan, level) == capIdx {
				fmt.Fprintf(&sb, " cap=%d", capValue)
			}
		}
		sb.WriteByte(':')
		for i, nd := range nodes {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", nd)
			if weight[nd] > 1 {
				fmt.Fprintf(&sb, "*%d", weight[nd])
			}
		}
	}
	return sb.String()
}

// ancestorIndex returns the index of leaf's ancestor at level (level
// len(fan)-1 is the leaf itself).
func ancestorIndex(leaf int, fan []int, level int) int {
	idx := leaf
	for l := len(fan) - 1; l > level; l-- {
		idx /= fan[l]
	}
	return idx
}

// levelWord names a level by its distance from the leaves.
func levelWord(fromLeaf int) string {
	return [...]string{"rack", "zone", "region"}[fromLeaf]
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
