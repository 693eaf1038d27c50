package experiments

import (
	"fmt"
	"io"

	"repro/internal/adversary"
	"repro/internal/placement"
	"repro/internal/search"
	"repro/internal/topology"
)

// This experiment extends the paper's evaluation beyond its independent-
// failure model: the adversary fails whole failure domains (the
// correlated setting of Mills, Chandrasekaran & Mittal,
// arXiv:1701.01539) instead of k free nodes — racks on the flat rows,
// and every level of the tree (racks, zones, regions) on the
// hierarchical rows. For each scenario the table contrasts, on the same
// DP-optimized Combo placement,
//
//   - Avail under the paper's node adversary (k worst nodes, exact),
//   - Avail under the domain adversary (d worst whole domains, exact,
//     per level) for the domain-oblivious placement (abstract ids =
//     physical nodes), and
//   - the same after the domain-aware spreading post-pass
//     (placement.SpreadAcrossDomains — hierarchical on trees).
//
// Every aware column is never worse than its oblivious twin at the same
// level — the spreading pass guarantees it, and
// TestDomainTableAwareNeverWorse enforces it on every row and level.

// DomainScenario is one row of the domain-adversary table. K is chosen
// per scenario so the node and domain attacks are comparable (k ≈ the
// node count of the d largest racks). Zones, when positive, groups the
// racks into that many zones (Racks divisible by Zones); Regions
// further groups the zones (Zones divisible by Regions). The adversary
// then attacks every level, with d clamped to the level's domain count.
type DomainScenario struct {
	N, R, S, K, B int
	Racks         int // leaf rack count
	Zones         int // optional zone count over the racks (0 = flat)
	Regions       int // optional region count over the zones (0 = none)
	D             int // whole-domain failure budget (per level, clamped)
	// HotWeight, when > 1, makes node 0 a hot node of that weight (all
	// others weigh 1) and switches the row to WEIGHTED accounting: every
	// availability column is W0 − lost weight, where W0 is the oblivious
	// labeling's total object weight (a shared baseline, so the aware
	// column stays >= the oblivious one exactly when it loses no more
	// weight), the spread pass runs weighted-aware, and the adversaries
	// maximize lost weight.
	HotWeight int
}

// DomainCell is a computed row. The zone and region columns are -1 on
// rows whose topology does not have that level. On weighted rows
// (HotWeight > 1) every availability column is in weight units against
// the TotalWeight baseline.
type DomainCell struct {
	DomainScenario
	TotalWeight     int64 // W0 baseline of a weighted row (0: unweighted)
	NodeAvail       int   // oblivious Combo vs k-node adversary
	ObliviousAvail  int   // oblivious Combo vs d-rack adversary
	AwareAvail      int   // spread Combo vs d-rack adversary
	ZoneOblivAvail  int   // oblivious Combo vs d-zone adversary
	ZoneAwareAvail  int   // spread Combo vs d-zone adversary
	RegionObliv     int   // oblivious Combo vs d-region adversary
	RegionAware     int   // spread Combo vs d-region adversary
	MinSpreadBefore int   // min distinct racks per object, oblivious
	MinSpreadAfter  int   // min distinct racks per object, aware
}

// DomainOpts scales the experiment. Zero values select the default
// grid: constructible Combo placements on small Steiner orders, all
// adversaries exact and serial under the default (residual) bound.
type DomainOpts struct {
	Scenarios []DomainScenario
	Budget    int64        // adversary search budget (0 = exact)
	Workers   int          // search workers; > 1 picks the parallel engines
	Bound     search.Bound // branch-and-bound pruning ablation (default residual)
}

// defaultDomainScenarios keeps every adversary exactly solvable in
// milliseconds while covering both Steiner orders, two rack widths,
// one- and two-rack failures, and — on the hierarchical rows — zone and
// region adversaries over depth-2 and depth-3 trees.
func defaultDomainScenarios() []DomainScenario {
	return []DomainScenario{
		{N: 9, R: 3, S: 2, K: 3, B: 12, Racks: 3, D: 1},
		{N: 9, R: 3, S: 2, K: 3, B: 24, Racks: 3, D: 1},
		// k = 6 makes the DP favor x = 0 partition chunks, which align
		// catastrophically with contiguous racks until the spreading
		// pass relabels them — the rows where aware strictly wins.
		{N: 12, R: 3, S: 2, K: 6, B: 8, Racks: 3, D: 1},
		{N: 12, R: 3, S: 2, K: 6, B: 16, Racks: 4, D: 1},
		{N: 13, R: 3, S: 2, K: 4, B: 26, Racks: 4, D: 1},
		{N: 13, R: 3, S: 2, K: 7, B: 26, Racks: 4, D: 2},
		{N: 13, R: 3, S: 3, K: 7, B: 26, Racks: 4, D: 2},
		{N: 15, R: 3, S: 2, K: 6, B: 35, Racks: 5, D: 2},
		// Hierarchical rows: the same partition-chunk placement under
		// rack, zone, and region adversaries. The hierarchical spread
		// separates replicas at the coarse levels first, so the aware
		// columns hold up even when a whole region dies.
		{N: 12, R: 3, S: 2, K: 6, B: 16, Racks: 4, Zones: 2, D: 1},
		{N: 12, R: 3, S: 2, K: 6, B: 16, Racks: 8, Zones: 4, Regions: 2, D: 1},
		{N: 13, R: 3, S: 2, K: 7, B: 26, Racks: 8, Zones: 4, Regions: 2, D: 2},
		// Weighted rows: node 0 is hot, the adversaries maximize lost
		// weight, and the spread runs weighted-aware — the heterogeneous
		// row of the table (flat and hierarchical).
		{N: 12, R: 3, S: 2, K: 6, B: 16, Racks: 4, D: 1, HotWeight: 5},
		{N: 12, R: 3, S: 2, K: 6, B: 16, Racks: 8, Zones: 4, Regions: 2, D: 1, HotWeight: 3},
	}
}

// buildScenarioTopology materializes the (possibly hierarchical) tree a
// scenario describes.
func buildScenarioTopology(sc DomainScenario) (*topology.Topology, error) {
	switch {
	case sc.Regions > 0:
		if sc.Zones < 1 || sc.Zones%sc.Regions != 0 || sc.Racks%sc.Zones != 0 {
			return nil, fmt.Errorf("experiments: regions=%d zones=%d racks=%d must nest evenly",
				sc.Regions, sc.Zones, sc.Racks)
		}
		return topology.UniformTree(sc.N, sc.Regions, sc.Zones/sc.Regions, sc.Racks/sc.Zones)
	case sc.Zones > 0:
		if sc.Racks%sc.Zones != 0 {
			return nil, fmt.Errorf("experiments: racks=%d not divisible by zones=%d", sc.Racks, sc.Zones)
		}
		return topology.UniformTree(sc.N, sc.Zones, sc.Racks/sc.Zones)
	default:
		return topology.Uniform(sc.N, sc.Racks)
	}
}

// DomainTable computes the node-vs-domain adversary comparison.
func DomainTable(opts DomainOpts) ([]DomainCell, error) {
	scenarios := opts.Scenarios
	if len(scenarios) == 0 {
		scenarios = defaultDomainScenarios()
	}
	// Workers < 1 clamps to serial (not GOMAXPROCS, which is what
	// SearchOpts would make of a negative count): the zero value keeps
	// the table's historical serial, deterministic behavior.
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	searchOpts := adversary.SearchOpts{Budget: opts.Budget, Workers: workers, Bound: opts.Bound}
	cells := make([]DomainCell, 0, len(scenarios))
	for _, sc := range scenarios {
		combo, _, _, err := placement.BuildDefaultCombo(sc.N, sc.R, sc.S, sc.K, sc.B)
		if err != nil {
			return nil, fmt.Errorf("experiments: combo for %+v: %w", sc, err)
		}
		topo, err := buildScenarioTopology(sc)
		if err != nil {
			return nil, err
		}
		weighted := sc.HotWeight > 1
		var w0 int64
		if weighted {
			weights := make([]int, sc.N)
			for i := range weights {
				weights[i] = 1
			}
			weights[0] = sc.HotWeight
			topo.Weights = weights
			oblivW, werr := placement.ObjectWeights(combo, topo)
			if werr != nil {
				return nil, werr
			}
			w0 = placement.SumWeights(oblivW, sc.B)
		}
		// weightedOpts returns the search options carrying pl's own
		// object weights (relabeling moves objects on and off the hot
		// node, so each layout is scored with its own vector).
		weightedOpts := func(pl *placement.Placement) (adversary.SearchOpts, error) {
			opts := searchOpts
			if weighted {
				objW, err := placement.ObjectWeights(pl, topo)
				if err != nil {
					return opts, err
				}
				opts.ObjWeights = objW
			}
			return opts, nil
		}
		nodeOpts, err := weightedOpts(combo)
		if err != nil {
			return nil, err
		}
		nodeRes, err := adversary.WorstCaseWith(combo, sc.S, sc.K, nodeOpts)
		if err != nil {
			return nil, err
		}
		aware, _, err := placement.SpreadAcrossDomainsWith(combo, topo, sc.S, sc.D,
			placement.SpreadOpts{Weighted: weighted})
		if err != nil {
			return nil, err
		}
		// Avail for both layouts under the whole-domain adversary at
		// the given level, with d clamped to the level's domain count;
		// weighted rows report W0 − lost weight.
		levelAvail := func(pl *placement.Placement, level int) (int, error) {
			nd, err := topo.NumDomainsAt(level)
			if err != nil {
				return 0, err
			}
			dl := sc.D
			if dl > nd {
				dl = nd
			}
			opts, err := weightedOpts(pl)
			if err != nil {
				return 0, err
			}
			res, err := adversary.DomainWorstCaseAtWith(pl, topo, level, sc.S, dl, opts)
			if err != nil {
				return 0, err
			}
			if weighted {
				return int(w0) - res.Failed, nil
			}
			return res.Avail(sc.B), nil
		}
		cell := DomainCell{
			DomainScenario: sc,
			TotalWeight:    w0,
			NodeAvail:      nodeRes.Avail(sc.B),
			ZoneOblivAvail: -1, ZoneAwareAvail: -1, RegionObliv: -1, RegionAware: -1,
		}
		if weighted {
			cell.NodeAvail = int(w0) - nodeRes.Failed
		}
		if cell.ObliviousAvail, err = levelAvail(combo, topology.Leaf); err != nil {
			return nil, err
		}
		if cell.AwareAvail, err = levelAvail(aware, topology.Leaf); err != nil {
			return nil, err
		}
		if topo.Levels() >= 2 {
			zoneLevel := topo.Levels() - 2
			if cell.ZoneOblivAvail, err = levelAvail(combo, zoneLevel); err != nil {
				return nil, err
			}
			if cell.ZoneAwareAvail, err = levelAvail(aware, zoneLevel); err != nil {
				return nil, err
			}
		}
		if topo.Levels() >= 3 {
			regionLevel := topo.Levels() - 3
			if cell.RegionObliv, err = levelAvail(combo, regionLevel); err != nil {
				return nil, err
			}
			if cell.RegionAware, err = levelAvail(aware, regionLevel); err != nil {
				return nil, err
			}
		}
		before, err := placement.DomainSpread(combo, topo)
		if err != nil {
			return nil, err
		}
		after, err := placement.DomainSpread(aware, topo)
		if err != nil {
			return nil, err
		}
		cell.MinSpreadBefore = before.MinDomains
		cell.MinSpreadAfter = after.MinDomains
		cells = append(cells, cell)
	}
	return cells, nil
}

// RenderDomainTable writes the comparison in the repo's table layout.
// The zone and region columns print oblivious/aware pairs, "-" on flat
// rows.
func RenderDomainTable(w io.Writer, cells []DomainCell) error {
	if _, err := fmt.Fprintf(w, "Node adversary vs whole-domain adversary (rack/zone/region) on Combo placements\n"); err != nil {
		return err
	}
	pair := func(obliv, aware int) string {
		if obliv < 0 {
			return "-"
		}
		return fmt.Sprintf("%d/%d", obliv, aware)
	}
	topoCol := func(c DomainCell) string {
		var col string
		switch {
		case c.Regions > 0:
			col = fmt.Sprintf("%dx%dx%d", c.Regions, c.Zones/c.Regions, c.Racks/c.Zones)
		case c.Zones > 0:
			col = fmt.Sprintf("%dx%d", c.Zones, c.Racks/c.Zones)
		default:
			col = fmt.Sprintf("%d", c.Racks)
		}
		if c.HotWeight > 1 {
			// Weighted row: availability columns are W0 − lost weight.
			col += fmt.Sprintf(" w%d", c.HotWeight)
		}
		return col
	}
	headers := []string{"n", "r", "s", "k", "b", "topo", "d",
		"Avail(node,k)", "Avail(rack,d) obliv", "Avail(rack,d) aware",
		"Avail(zone,d) ob/aw", "Avail(region,d) ob/aw", "minspread"}
	rows := make([][]string, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.N), fmt.Sprintf("%d", c.R), fmt.Sprintf("%d", c.S),
			fmt.Sprintf("%d", c.K), fmt.Sprintf("%d", c.B),
			topoCol(c), fmt.Sprintf("%d", c.D),
			fmt.Sprintf("%d", c.NodeAvail),
			fmt.Sprintf("%d", c.ObliviousAvail),
			fmt.Sprintf("%d", c.AwareAvail),
			pair(c.ZoneOblivAvail, c.ZoneAwareAvail),
			pair(c.RegionObliv, c.RegionAware),
			fmt.Sprintf("%d->%d", c.MinSpreadBefore, c.MinSpreadAfter),
		})
	}
	return renderTable(w, headers, rows)
}
