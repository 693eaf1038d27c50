package experiments

import (
	"fmt"
	"io"

	"repro/internal/adversary"
	"repro/internal/capacity"
	"repro/internal/design"
	"repro/internal/placement"
	"repro/internal/randplace"
)

// ---------------------------------------------------------------------------
// Fig. 2 — tightness of the Lemma 2 lower bound on concrete placements.
// ---------------------------------------------------------------------------

// Fig2Point reports Avail(π) − lbAvail_si(x, λ) for one (b, s, k): the
// paper's Fig. 2 measures this gap for Simple(1, λ) placements on STS
// chunks with n = 71, r = 3.
type Fig2Point struct {
	B, S, K int
	Lambda  int
	Avail   int   // b − worst-case failures (simulated adversary)
	LB      int64 // Lemma 2 bound
	Gap     int64 // Avail − LB (>= 0 when Exact)
	Exact   bool  // adversary search completed exactly
}

// Fig2Opts scales the simulation. Zero values choose a configuration
// faithful to the paper but tractable by default: the full paper scale
// (b up to 9600, k up to 5) is selected with Full.
type Fig2Opts struct {
	N, R, X int      // default 71, 3, 1 (the paper's panel)
	Bs      []int    // default 600..2400; Full: 600..9600
	SKs     [][2]int // (s, k) series; default s=2,k=2..4 and s=3,k=3..4
	Budget  int64    // adversary B&B budget per point; 0 = exact (may be slow)
	Full    bool
}

// Fig2 builds the Simple(x, λ) placement for each b (λ minimal per
// Eqn. 1) and attacks it with the worst-case adversary.
func Fig2(opts Fig2Opts) ([]Fig2Point, error) {
	if opts.N == 0 {
		opts.N, opts.R, opts.X = 71, 3, 1
	}
	if len(opts.Bs) == 0 {
		if opts.Full {
			opts.Bs = doublings(600, 9600)
		} else {
			opts.Bs = doublings(600, 2400)
		}
	}
	if len(opts.SKs) == 0 {
		if opts.Full {
			opts.SKs = [][2]int{{2, 2}, {2, 3}, {2, 4}, {2, 5}, {3, 3}, {3, 4}, {3, 5}}
		} else {
			opts.SKs = [][2]int{{2, 2}, {2, 3}, {2, 4}, {3, 3}, {3, 4}}
		}
	}
	if opts.Budget == 0 && !opts.Full {
		opts.Budget = 2_000_000
	}
	t := opts.X + 1
	order, ok := bestOrder(t, opts.R, opts.N)
	if !ok {
		return nil, fmt.Errorf("experiments: no constructible %d-(·,%d,1) order <= %d", t, opts.R, opts.N)
	}
	capPerMu, integral := placement.SimpleCapacity([]int{order}, opts.R, opts.X, 1, 1)
	if !integral {
		return nil, fmt.Errorf("experiments: non-integral capacity at order %d", order)
	}
	var out []Fig2Point
	for _, b := range opts.Bs {
		lambda, err := placement.MinimalLambda(int64(b), capPerMu, 1)
		if err != nil {
			return nil, err
		}
		pl, err := placement.BuildSimple(opts.N, opts.R, opts.X, lambda, b,
			placement.SimpleOptions{Orders: []int{order}})
		if err != nil {
			return nil, err
		}
		for _, sk := range opts.SKs {
			s, k := sk[0], sk[1]
			res, err := adversary.WorstCaseWith(pl, s, k, adversary.SearchOpts{Budget: opts.Budget, Workers: -1})
			if err != nil {
				return nil, err
			}
			avail := res.Avail(b)
			lb := placement.LBAvailSimple(int64(b), k, s, opts.X, lambda)
			out = append(out, Fig2Point{
				B: b, S: s, K: k, Lambda: lambda,
				Avail: avail, LB: lb, Gap: int64(avail) - lb, Exact: res.Exact,
			})
		}
	}
	return out, nil
}

func bestOrder(t, r, n int) (int, bool) {
	// The experiment materializes placements, so only constructible
	// orders qualify.
	return design.BestConstructibleOrder(t, r, n)
}

// RenderFig2 writes the gap series.
func RenderFig2(w io.Writer, points []Fig2Point) error {
	if _, err := fmt.Fprintln(w, "Fig. 2: Avail(π) − lbAvail_si(x, λ) for Simple(1, λ), n = 71, r = 3"); err != nil {
		return err
	}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		exact := "exact"
		if !p.Exact {
			exact = "bound"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.B), fmt.Sprintf("%d", p.S), fmt.Sprintf("%d", p.K),
			fmt.Sprintf("%d", p.Lambda), fmt.Sprintf("%d", p.Avail),
			fmt.Sprintf("%d", p.LB), fmt.Sprintf("%d", p.Gap), exact,
		})
	}
	return renderTable(w, []string{"b", "s", "k", "lambda", "Avail", "lb", "gap", "mode"}, rows)
}

// ---------------------------------------------------------------------------
// Figs. 5 and 6 — capacity-gap CDFs.
// ---------------------------------------------------------------------------

// Fig5Curve is one CDF curve: for (r, x), the fraction of system sizes
// whose capacity gap is at most each threshold.
type Fig5Curve struct {
	R, X, MaxMu int
	Thresholds  []float64
	CDF         []float64
}

// Fig5Opts configures the sweep; zeros choose the paper's range
// n ∈ [50, 800] with up to 3 chunks.
type Fig5Opts struct {
	NLo, NHi, M int
}

// Fig5 reproduces the μ = 1 capacity-gap CDFs for r = 2..5, x = 0..r-1.
func Fig5(opts Fig5Opts) ([]Fig5Curve, error) {
	return capacityGapCurves(opts, 1, allRXPairs())
}

// Fig6 reproduces the μ > 1 relaxation for r = 5, x ∈ {2, 3}, with
// μ <= 5 and μ <= 10.
func Fig6(opts Fig5Opts) ([]Fig5Curve, error) {
	pairs := [][2]int{{5, 2}, {5, 3}}
	mu5, err := capacityGapCurves(opts, 5, pairs)
	if err != nil {
		return nil, err
	}
	mu10, err := capacityGapCurves(opts, 10, pairs)
	if err != nil {
		return nil, err
	}
	return append(mu5, mu10...), nil
}

func allRXPairs() [][2]int {
	var pairs [][2]int
	for r := 2; r <= 5; r++ {
		for x := 0; x < r; x++ {
			pairs = append(pairs, [2]int{r, x})
		}
	}
	return pairs
}

func capacityGapCurves(opts Fig5Opts, maxMu int, pairs [][2]int) ([]Fig5Curve, error) {
	if opts.NLo == 0 {
		opts.NLo, opts.NHi = 50, 800
	}
	if opts.M == 0 {
		opts.M = 3
	}
	thresholds := make([]float64, 21)
	for i := range thresholds {
		thresholds[i] = float64(i) / 20
	}
	var out []Fig5Curve
	for _, rx := range pairs {
		r, x := rx[0], rx[1]
		gaps, err := capacity.GapCurve(x+1, r, opts.NLo, opts.NHi, opts.M, maxMu)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig5Curve{
			R: r, X: x, MaxMu: maxMu,
			Thresholds: thresholds,
			CDF:        capacity.CDF(gaps, thresholds),
		})
	}
	return out, nil
}

// RenderFig5 writes CDF curves (Fig. 5 when all MaxMu = 1, Fig. 6
// otherwise).
func RenderFig5(w io.Writer, curves []Fig5Curve) error {
	if _, err := fmt.Fprintln(w, "Figs. 5/6: capacity-gap CDFs (fraction of n in range with gap <= threshold)"); err != nil {
		return err
	}
	rows := make([][]string, 0, len(curves)*4)
	for _, c := range curves {
		for i, th := range c.Thresholds {
			if i%4 != 0 { // sample the curve for compact output
				continue
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", c.R), fmt.Sprintf("%d", c.X), fmt.Sprintf("%d", c.MaxMu),
				fmt.Sprintf("%.2f", th), fmt.Sprintf("%.3f", c.CDF[i]),
			})
		}
	}
	return renderTable(w, []string{"r", "x", "maxMu", "gap<=", "fraction"}, rows)
}

// ---------------------------------------------------------------------------
// Fig. 7 — accuracy of prAvail against the empirical average.
// ---------------------------------------------------------------------------

// Fig7Point compares the analytic prAvail to the empirical average
// availability of Random placements under the worst-case adversary.
type Fig7Point struct {
	N, R, S, K, B int
	PrAvail       int
	AvgAvail      float64
	ErrorPercent  float64 // 100·(PrAvail − AvgAvail)/AvgAvail
	Exact         bool
}

// Fig7Opts scales the experiment. The paper uses 20 trials and b up to
// 9600; defaults are reduced for tractability and Full selects the paper
// scale.
type Fig7Opts struct {
	Trials  int
	Bs      []int
	Budget  int64
	Seed    int64
	Full    bool
	Configs []struct{ N, R, S, KLo, KHi int }
}

// Fig7 reproduces Fig. 7.
func Fig7(opts Fig7Opts) ([]Fig7Point, error) {
	if opts.Trials == 0 {
		opts.Trials = 20
		if !opts.Full {
			opts.Trials = 3
		}
	}
	if len(opts.Bs) == 0 {
		if opts.Full {
			opts.Bs = doublings(150, 9600)
		} else {
			opts.Bs = doublings(150, 600)
		}
	}
	if opts.Budget == 0 && !opts.Full {
		opts.Budget = 500_000
	}
	if opts.Seed == 0 {
		opts.Seed = 20150610
	}
	if len(opts.Configs) == 0 {
		opts.Configs = []struct{ N, R, S, KLo, KHi int }{
			{31, 5, 3, 3, 5},
			{71, 5, 2, 2, 5},
		}
		if !opts.Full {
			opts.Configs[0].KHi = 4
			opts.Configs[1].KHi = 3
		}
	}
	var out []Fig7Point
	for _, cfg := range opts.Configs {
		for k := cfg.KLo; k <= cfg.KHi; k++ {
			for _, b := range opts.Bs {
				p := placement.Params{N: cfg.N, B: b, R: cfg.R, S: cfg.S, K: k}
				pr, err := randplace.PrAvailTable(p)
				if err != nil {
					return nil, err
				}
				avg, err := randplace.AvgAvail(p, opts.Trials, opts.Seed, opts.Budget)
				if err != nil {
					return nil, err
				}
				pt := Fig7Point{
					N: cfg.N, R: cfg.R, S: cfg.S, K: k, B: b,
					PrAvail: pr, AvgAvail: avg.Mean, Exact: avg.Exact,
				}
				if avg.Mean > 0 {
					pt.ErrorPercent = 100 * (float64(pr) - avg.Mean) / avg.Mean
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

// RenderFig7 writes the error series.
func RenderFig7(w io.Writer, points []Fig7Point) error {
	if _, err := fmt.Fprintln(w, "Fig. 7: (prAvail − avgAvail)/avgAvail as a percentage"); err != nil {
		return err
	}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		exact := "exact"
		if !p.Exact {
			exact = "approx"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.N), fmt.Sprintf("%d", p.R), fmt.Sprintf("%d", p.S),
			fmt.Sprintf("%d", p.K), fmt.Sprintf("%d", p.B),
			fmt.Sprintf("%d", p.PrAvail), fmt.Sprintf("%.1f", p.AvgAvail),
			fmt.Sprintf("%.1f", p.ErrorPercent), exact,
		})
	}
	return renderTable(w, []string{"n", "r", "s", "k", "b", "prAvail", "avgAvail", "err %", "adversary"}, rows)
}
