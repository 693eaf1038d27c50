package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/placement"
	"repro/internal/topology"
)

// topologyFlags registers the shared failure-domain parameters. A
// topology comes either from -racks/-zones (uniform) or from -topo (an
// explicit spec of any depth); -level picks which level of the tree the
// correlated adversary attacks.
type topologyFlags struct {
	racks   int
	zones   int
	dfail   int
	spec    string
	level   int
	weights string
	caps    string
}

// addTopologyFlags registers the shared failure-domain flags.
// defaultRacks is 0 for commands where the topology section is opt-in
// (plan, compare, attack) and positive where it is the point (topology).
func addTopologyFlags(fs *flag.FlagSet, defaultRacks int) *topologyFlags {
	tf := &topologyFlags{}
	help := "failure domains (racks) to spread nodes over"
	if defaultRacks == 0 {
		help += " (0 = no topology section)"
	}
	fs.IntVar(&tf.racks, "racks", defaultRacks, help)
	fs.IntVar(&tf.zones, "zones", 0, "group racks into this many zones (0 = flat racks)")
	fs.IntVar(&tf.dfail, "dfail", 1, "whole-domain failures the correlated adversary may pick")
	fs.StringVar(&tf.spec, "topo", "", "explicit topology spec of any depth (rack@zone@region:nodes;...), instead of -racks/-zones")
	fs.IntVar(&tf.level, "level", topology.Leaf, "topology level the domain adversary attacks (0 = top, -1 = leaf racks)")
	fs.StringVar(&tf.weights, "weights", "", "node weights as node[-node]*w tokens (e.g. 0*4,6-8*2; unlisted nodes weigh 1) — adversary sections additionally score lost weight")
	fs.StringVar(&tf.caps, "caps", "", "per-domain replica caps as name=N pairs (e.g. rack0=8,zone1=12; any level) — the spreading pass must respect them")
	return tf
}

// enabled reports whether any topology was requested.
func (tf *topologyFlags) enabled() bool { return tf.racks != 0 || tf.spec != "" }

// validate errors when topology flags were set inconsistently: -topo
// excludes the uniform -racks/-zones pair, and -zones/-dfail/-level
// without any topology would be silently dropped otherwise.
func (tf *topologyFlags) validate(fs *flag.FlagSet) error {
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	has := func(name string) bool {
		for _, s := range set {
			if s == name {
				return true
			}
		}
		return false
	}
	if tf.spec != "" && (has("racks") || has("zones")) {
		return fmt.Errorf("topology: -topo excludes -racks/-zones")
	}
	if !tf.enabled() {
		for _, orphan := range []string{"zones", "dfail", "level", "weights", "caps"} {
			if has(orphan) {
				return fmt.Errorf("topology: -%s has no effect without -racks or -topo", orphan)
			}
		}
	}
	return nil
}

// parseWeightsSpec parses the -weights flag: comma-separated
// node[-node]*w tokens reusing the topology spec's node-token grammar.
// base carries weights already declared (e.g. *w annotations inside a
// -topo spec): listed nodes override it, unlisted nodes keep it (or
// weigh 1 when base is nil).
func parseWeightsSpec(n int, spec string, base []int) ([]int, error) {
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1
	}
	copy(weights, base)
	for _, tok := range strings.Split(spec, ",") {
		body, wstr, ok := strings.Cut(tok, "*")
		if !ok {
			return nil, fmt.Errorf("weights: token %q missing *weight", tok)
		}
		w, err := strconv.Atoi(wstr)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("weights: bad weight in %q (want an integer >= 1)", tok)
		}
		lo, hi, isRange := strings.Cut(body, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("weights: bad node in %q", tok)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return nil, fmt.Errorf("weights: bad range in %q", tok)
			}
		}
		if a < 0 || b < a || b >= n {
			return nil, fmt.Errorf("weights: nodes %q out of range [0, %d)", tok, n)
		}
		for v := a; v <= b; v++ {
			weights[v] = w
		}
	}
	return weights, nil
}

// applyCapsSpec parses the -caps flag (name=N pairs) and sets the caps
// on the named domains, which may sit at any level of the tree.
func applyCapsSpec(topo *topology.Topology, spec string) error {
	for _, tok := range strings.Split(spec, ",") {
		name, capStr, ok := strings.Cut(tok, "=")
		if !ok {
			return fmt.Errorf("caps: token %q is not name=N", tok)
		}
		c, err := strconv.Atoi(capStr)
		if err != nil || c < 1 {
			return fmt.Errorf("caps: bad cap in %q (want an integer >= 1)", tok)
		}
		if err := topo.SetCap(name, c); err != nil {
			return fmt.Errorf("caps: %w", err)
		}
	}
	return nil
}

// build materializes the topology the flags describe for n nodes,
// applying the -weights and -caps annotations on top.
func (tf *topologyFlags) build(n int) (*topology.Topology, error) {
	var (
		topo *topology.Topology
		err  error
	)
	if tf.spec != "" {
		topo, err = topology.ParseSpec(n, tf.spec)
	} else {
		if tf.racks < 1 {
			return nil, fmt.Errorf("topology: -racks must be positive")
		}
		if tf.zones > 0 {
			if tf.racks%tf.zones != 0 {
				return nil, fmt.Errorf("topology: -racks %d not divisible by -zones %d", tf.racks, tf.zones)
			}
			topo, err = topology.UniformHierarchy(n, tf.zones, tf.racks/tf.zones)
		} else {
			topo, err = topology.Uniform(n, tf.racks)
		}
	}
	if err != nil {
		return nil, err
	}
	if tf.weights != "" {
		// Merge over any *w annotations the -topo spec declared: the
		// flag overrides the nodes it lists, the spec keeps the rest.
		w, werr := parseWeightsSpec(n, tf.weights, topo.Weights)
		if werr != nil {
			return nil, werr
		}
		topo.Weights = w
	}
	if tf.caps != "" {
		if cerr := applyCapsSpec(topo, tf.caps); cerr != nil {
			return nil, cerr
		}
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if _, err := topo.ResolveLevel(tf.level); err != nil {
		return nil, err
	}
	return topo, nil
}

// levelDomains returns the attacked level's domain count, its display
// word ("rack", "zone", ...) for output that names what is failing, and
// the dfail budget clamped to the count (a 2-region level accepts at
// most d = 2 even when -dfail asked for more).
func levelDomains(topo *topology.Topology, level, dfail int) (int, string, int, error) {
	nd, err := topo.NumDomainsAt(level)
	if err != nil {
		return 0, "", 0, err
	}
	if dfail > nd {
		dfail = nd
	}
	return nd, topo.LevelName(level), dfail, nil
}

// describeTree summarizes a hierarchy top-down ("2 regions > 4 zones >
// 8 racks"); flat topologies yield the empty string.
func describeTree(topo *topology.Topology) string {
	if topo.Levels() == 1 {
		return ""
	}
	parts := make([]string, topo.Levels())
	for l := 0; l < topo.Levels(); l++ {
		nd, _ := topo.NumDomainsAt(l)
		parts[l] = fmt.Sprintf("%d %ss", nd, topo.LevelName(l))
	}
	return strings.Join(parts, " > ")
}

// cmdTopology builds a Combo placement, applies the domain-aware
// spreading pass, and contrasts the node-level and domain-correlated
// adversaries on both layouts — at the chosen attack level, and (for
// hierarchies) at every level of the tree.
func cmdTopology(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("topology", flag.ContinueOnError)
	mf := addModelFlags(fs)
	tf := addTopologyFlags(fs, 4)
	budget := fs.Int64("budget", 0, "adversary search budget (0 = exact)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tf.validate(fs); err != nil {
		return err
	}
	p := placement.Params{N: mf.n, B: mf.b, R: mf.r, S: mf.s, K: mf.k}
	if err := p.Validate(); err != nil {
		return err
	}
	topo, err := tf.build(mf.n)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "topology: %d nodes, %d domains", topo.N, topo.NumDomains())
	if desc := describeTree(topo); desc != "" {
		fmt.Fprintf(w, " (%s)", desc)
	}
	fmt.Fprintf(w, "\n  %s\n", topo.Spec())

	combo, spec, bound, err := placement.BuildDefaultCombo(mf.n, mf.r, mf.s, mf.k, mf.b)
	if err != nil {
		return err
	}
	aware, _, err := placement.SpreadAcrossDomainsWith(combo, topo, mf.s, tf.dfail,
		placement.SpreadOpts{Weighted: topo.Weighted()})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "combo placement: lambdas %v, node-adversary guarantee >= %d of %d\n",
		spec.Lambdas, bound, mf.b)

	_, word, dl, err := levelDomains(topo, tf.level, tf.dfail)
	if err != nil {
		return err
	}
	for _, layout := range []struct {
		name string
		pl   *placement.Placement
	}{{"domain-oblivious", combo}, {"domain-aware   ", aware}} {
		stats, err := placement.DomainSpread(layout.pl, topo)
		if err != nil {
			return err
		}
		res, err := adversary.DomainWorstCaseAtWith(layout.pl, topo, tf.level, mf.s, dl, adversary.SearchOpts{Budget: *budget})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: replicas span %d-%d domains/object; worst %d-%s failure %v fails %d (Avail = %d, %s)\n",
			layout.name, stats.MinDomains, stats.MaxDomains, dl, word,
			topo.DomainNamesAt(tf.level, res.Domains), res.Failed, res.Avail(mf.b), exactness(res.Exact))
	}

	if topo.Weighted() {
		if err := weightedDomainSection(w, topo, tf.level, mf.s, dl,
			adversary.SearchOpts{Budget: *budget},
			[]namedLayout{{"domain-oblivious", combo}, {"domain-aware", aware}}); err != nil {
			return err
		}
	}

	nodeRes, err := adversary.WorstCaseWith(combo, mf.s, mf.k, adversary.SearchOpts{Budget: *budget})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "node adversary (%d free nodes): fails %d (Avail = %d, %s)\n",
		mf.k, nodeRes.Failed, nodeRes.Avail(mf.b), exactness(nodeRes.Exact))
	conRes, err := adversary.ConstrainedWorstCaseAtWith(aware, topo, tf.level, mf.s, mf.k, dl, adversary.SearchOpts{Budget: *budget})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "constrained adversary (%d nodes in <= %d %ss, aware layout): fails %d (Avail = %d, %s)\n",
		mf.k, dl, word, conRes.Failed, conRes.Avail(mf.b), exactness(conRes.Exact))

	// On hierarchies, sweep the whole tree: the worst whole-domain
	// failure at every level, on the aware layout — the per-level
	// availability picture one number per tier.
	if topo.Levels() > 1 {
		fmt.Fprintf(w, "per-level worst case (aware layout, d clamped to each level):\n")
		for l := 0; l < topo.Levels(); l++ {
			lnd, lword, ld, err := levelDomains(topo, l, tf.dfail)
			if err != nil {
				return err
			}
			res, err := adversary.DomainWorstCaseAtWith(aware, topo, l, mf.s, ld, adversary.SearchOpts{Budget: *budget})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  level %d (%d %ss): worst %d-%s failure %v fails %d (Avail = %d, %s)\n",
				l, lnd, lword, ld, lword,
				topo.DomainNamesAt(l, res.Domains), res.Failed, res.Avail(mf.b), exactness(res.Exact))
		}
	}
	return nil
}
