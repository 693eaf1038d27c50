package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestFig9ReproducesPaperCells(t *testing.T) {
	// Spot checks against the published Fig. 9a (n = 71). The paper
	// prints integer percentages; allow ±2 points for rounding-convention
	// and catalog differences.
	res, err := Fig9(Fig9Opts{N: 71, BMax: 38400})
	if err != nil {
		t.Fatal(err)
	}
	// The paper prints truncated integer percentages; allow ±1 for the
	// truncation convention. r = 4 cells are excluded: the paper's
	// (n=71, r=4, x=1) order n_1 = 70 violates divisibility (a
	// 2-(v, 4, 1) design needs v ≡ 1 or 4 mod 12) and this repository
	// substitutes 64.
	// Cells where b − prAvail is large reproduce to ±1 point (the
	// paper truncates to integers). Cells with b − prAvail of only a few
	// objects amplify a ±1 difference in the Vuln crossing into tens of
	// points and carry a wider tolerance.
	checks := []struct {
		r, s, k, b int
		want, tol  float64
	}{
		{2, 2, 2, 2400, 85, 1}, // headline example quoted in the paper text
		{2, 2, 2, 600, 75, 1},
		{2, 2, 7, 600, 16, 1},
		{2, 2, 5, 38400, 28, 1},
		{3, 2, 2, 600, 83, 1},
		{3, 3, 3, 600, 66, 1},
		{3, 3, 3, 2400, 66, 1},
		{3, 3, 7, 2400, -100, 1},
		{3, 3, 7, 38400, 40, 1},
		{5, 5, 5, 600, 50, 1},
		{5, 3, 3, 2400, 83, 1},
		{5, 2, 7, 38400, -22, 4}, // bulk-regime tail crossing: ±4
	}
	for _, c := range checks {
		cell, ok := res.Cell(c.r, c.s, c.k, c.b)
		if !ok {
			t.Fatalf("missing cell r=%d s=%d k=%d b=%d", c.r, c.s, c.k, c.b)
		}
		if math.Abs(cell.Percent-c.want) > c.tol {
			t.Errorf("Fig9 n=71 r=%d s=%d k=%d b=%d: got %.1f%%, paper %d%%",
				c.r, c.s, c.k, c.b, cell.Percent, int(c.want))
		}
	}
	// Hypersensitive cell (b − prAvail ≈ 6 objects): assert agreement at
	// the prAvail level instead of the amplified percentage.
	cell, ok := res.Cell(5, 5, 7, 38400)
	if !ok {
		t.Fatal("missing cell r=5 s=5 k=7 b=38400")
	}
	if d := cell.B - cell.PrAvail; d < 5 || d > 8 {
		t.Errorf("r=5 s=5 k=7 b=38400: b − prAvail = %d, paper implies ~7", d)
	}

	// Entire rows of Fig. 9a as printed, k = 2..7 left to right.
	// Rows at b = 38400 sit in the bulk regime of the Vuln tail, where
	// float conventions shift the crossing by tens of objects; they get
	// ±2 (see the large-b note above), the rest ±1.
	rows := []struct {
		r, s, b int
		tol     float64
		want    []float64
	}{
		{3, 2, 600, 1, []float64{83, 72, 66, 61, 55, 51}},
		{3, 2, 38400, 2, []float64{30, 21, 15, 11, 8, 5}},
		{2, 2, 19200, 2, []float64{60, 48, 42, 37, 34, 31}},
		{2, 2, 1200, 1, []float64{80, 70, 60, 52, 46, 40}},
	}
	for _, row := range rows {
		for i, want := range row.want {
			k := row.s + i
			cell, ok := res.Cell(row.r, row.s, k, row.b)
			if !ok {
				t.Fatalf("missing cell r=%d s=%d k=%d b=%d", row.r, row.s, k, row.b)
			}
			if math.Abs(cell.Percent-want) > row.tol {
				t.Errorf("Fig9a row r=%d s=%d b=%d k=%d: got %.1f%%, paper %d%%",
					row.r, row.s, row.b, k, cell.Percent, int(want))
			}
		}
	}
}

func TestFig9bReproducesPaperCells(t *testing.T) {
	// Spot checks against Fig. 9b (n = 257).
	res, err := Fig9(Fig9Opts{N: 257, BMax: 38400})
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		r, s, k, b int
		want, tol  float64
	}{
		{2, 2, 2, 600, 66, 1},
		{2, 2, 8, 38400, 36, 1},
		{3, 2, 2, 2400, 80, 1},
		{3, 3, 3, 2400, 66, 1},
		{5, 5, 5, 600, 50, 1},
		{5, 2, 2, 2400, 85, 1},
		// b − prAvail is only a handful of objects here; ±1 in the Vuln
		// crossing swings the percentage widely (paper prints -100).
		{2, 2, 8, 600, -100, 60},
	}
	for _, c := range checks {
		cell, ok := res.Cell(c.r, c.s, c.k, c.b)
		if !ok {
			t.Fatalf("missing cell r=%d s=%d k=%d b=%d", c.r, c.s, c.k, c.b)
		}
		if math.Abs(cell.Percent-c.want) > c.tol {
			t.Errorf("Fig9 n=257 r=%d s=%d k=%d b=%d: got %.1f%%, paper %d%%",
				c.r, c.s, c.k, c.b, cell.Percent, int(c.want))
		}
	}
}

func TestFig9StructureAndRender(t *testing.T) {
	res, err := Fig9(Fig9Opts{N: 71, BMax: 1200, KMax: 4, Rs: []int{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// r=2: s=2, k=2..4, b in {600,1200} -> 6 cells; r=3: s=2 and s=3.
	// s=2: k=2..4 (3), s=3: k=3..4 (2); (3+3+2)*2 = 16 cells total.
	if len(res.Cells) != 16 {
		t.Errorf("cell count = %d, want 16", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.LB < 0 || c.LB > int64(c.B) {
			t.Errorf("cell %+v: LB out of range", c)
		}
		if c.PrAvail < 0 || c.PrAvail > c.B {
			t.Errorf("cell %+v: PrAvail out of range", c)
		}
		switch c.Outcome {
		case 'W', 'T', 'L':
		default:
			t.Errorf("cell %+v: bad outcome", c)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "r = 2, s = 2") {
		t.Error("render missing sub-table header")
	}
	if _, err := Fig9(Fig9Opts{N: 71, BMax: 10}); err == nil {
		t.Error("BMax below 600 accepted")
	}
}

func TestFig3TunedMatchesOptimalAtK(t *testing.T) {
	points, err := Fig3(Fig3Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 15 { // 3 configs x 5 k'
		t.Fatalf("point count = %d, want 15", len(points))
	}
	for _, p := range points {
		if p.KPrime == 6 && math.Abs(p.RatioPercent-100) > 1e-9 {
			t.Errorf("n=%d b=%d: ratio at k'=k is %.2f%%, want 100%%", p.N, p.B, p.RatioPercent)
		}
		if p.RatioPercent > 100+1e-9 {
			t.Errorf("n=%d b=%d k'=%d: tuned spec beats the optimal spec (%.2f%%)",
				p.N, p.B, p.KPrime, p.RatioPercent)
		}
		// Fig. 3's y-axis starts at 99%: sensitivity is low.
		if p.RatioPercent < 95 {
			t.Errorf("n=%d b=%d k'=%d: ratio %.2f%% far below the paper's ~99%% floor",
				p.N, p.B, p.KPrime, p.RatioPercent)
		}
	}
	var buf bytes.Buffer
	if err := RenderFig3(&buf, points); err != nil {
		t.Fatal(err)
	}
}

func TestFig4MatchesCatalog(t *testing.T) {
	entries, err := Fig4(nil)
	if err != nil {
		t.Fatal(err)
	}
	find := func(n, r, x int) Fig4Entry {
		for _, e := range entries {
			if e.N == n && e.R == r && e.X == x {
				return e
			}
		}
		t.Fatalf("missing entry n=%d r=%d x=%d", n, r, x)
		return Fig4Entry{}
	}
	// Paper Fig. 4 values (with the documented 70 -> 64 substitution).
	if got := find(71, 3, 1).Order; got != 69 {
		t.Errorf("(71, 3, 1) order = %d, want 69", got)
	}
	if got := find(31, 5, 3).Order; got != 23 {
		t.Errorf("(31, 5, 3) order = %d, want 23", got)
	}
	if got := find(257, 5, 2).Order; got != 257 {
		t.Errorf("(257, 5, 2) order = %d, want 257", got)
	}
	if got := find(71, 4, 1).Order; got != 64 {
		t.Errorf("(71, 4, 1) order = %d, want 64 (documented substitution)", got)
	}
	var buf bytes.Buffer
	if err := RenderFig4(&buf, entries); err != nil {
		t.Fatal(err)
	}
}

func TestFig8Shapes(t *testing.T) {
	points, err := Fig8(Fig8Opts{B: 4800, KMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Monotone in k per (s, n, r); fractions within [0, 1].
	last := make(map[[3]int]float64)
	for _, p := range points {
		if p.Fraction < 0 || p.Fraction > 1 {
			t.Errorf("fraction %g out of range at %+v", p.Fraction, p)
		}
		key := [3]int{p.S, p.N, p.R}
		if prev, ok := last[key]; ok && p.Fraction > prev+1e-12 {
			t.Errorf("fraction increased with k at %+v", p)
		}
		last[key] = p.Fraction
	}
	// s = 1 should be far worse than s = r = 5 at the same k (Fig. 8).
	var s1, s5 float64
	for _, p := range points {
		if p.N == 71 && p.R == 5 && p.K == 5 {
			if p.S == 1 {
				s1 = p.Fraction
			}
			if p.S == 5 {
				s5 = p.Fraction
			}
		}
	}
	if s1 >= s5 {
		t.Errorf("s=1 fraction %g not below s=5 fraction %g", s1, s5)
	}
	var buf bytes.Buffer
	if err := RenderFig8(&buf, points); err != nil {
		t.Fatal(err)
	}
}

func TestFig10ComboDominatesSimple(t *testing.T) {
	cells, err := Fig10(Fig10Opts{N: 31, BMax: 4800, KMin: 3, KMax: 5})
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ b, k int }
	bestSimple := make(map[key]int64)
	combo := make(map[key]int64)
	for _, c := range cells {
		k := key{c.B, c.K}
		if c.X >= 0 {
			if c.LB > bestSimple[k] {
				bestSimple[k] = c.LB
			}
		} else {
			combo[k] = c.LB
		}
	}
	for k, cb := range combo {
		if cb < bestSimple[k] {
			t.Errorf("b=%d k=%d: Combo bound %d below best Simple bound %d",
				k.b, k.k, cb, bestSimple[k])
		}
	}
	var buf bytes.Buffer
	if err := RenderFig10(&buf, cells); err != nil {
		t.Fatal(err)
	}
}

func TestFig10PaperCell(t *testing.T) {
	// Fig. 10a (n = 31, r = s = 3): at b = 4800, k in {5, 6}, Combo
	// exceeds every Simple(x, λ) column (44 and 36 in the paper).
	cells, err := Fig10(Fig10Opts{N: 31, BMax: 4800, KMin: 5, KMax: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{5, 6} {
		var comboPct float64
		maxSimple := math.Inf(-1)
		for _, c := range cells {
			if c.B != 4800 || c.K != k {
				continue
			}
			if c.X < 0 {
				comboPct = c.Percent
			} else if c.Percent > maxSimple {
				maxSimple = c.Percent
			}
		}
		if comboPct <= maxSimple {
			t.Errorf("k=%d: Combo %.1f%% does not exceed best Simple %.1f%% (paper shows it must)",
				k, comboPct, maxSimple)
		}
	}
}

func TestFig10bPaperValues(t *testing.T) {
	// Fig. 10b (n = 71, r = s = 3), k = 3 column, from the published
	// sub-tables: at b = 38400 the Simple(1, λ) placement needs λ = 50
	// and collapses to -614%, while Simple(2, 1) and the Combo sit at 85%.
	cells, err := Fig10(Fig10Opts{N: 71, BMax: 38400, KMin: 3, KMax: 3})
	if err != nil {
		t.Fatal(err)
	}
	var x1, x2, combo *Fig10Cell
	for i := range cells {
		c := &cells[i]
		if c.B != 38400 || c.K != 3 {
			continue
		}
		switch c.X {
		case 1:
			x1 = c
		case 2:
			x2 = c
		case -1:
			combo = c
		}
	}
	if x1 == nil || x2 == nil || combo == nil {
		t.Fatal("missing Fig. 10 cells")
	}
	if x1.Lambda != 50 {
		t.Errorf("x=1 λ = %d, want 50", x1.Lambda)
	}
	if math.Abs(x1.Percent-(-614)) > 2 {
		t.Errorf("x=1 percent = %.1f, paper -614", x1.Percent)
	}
	if x2.Lambda != 1 {
		t.Errorf("x=2 λ = %d, want 1", x2.Lambda)
	}
	if math.Abs(x2.Percent-85) > 1 {
		t.Errorf("x=2 percent = %.1f, paper 85", x2.Percent)
	}
	if math.Abs(combo.Percent-85) > 1 {
		t.Errorf("combo percent = %.1f, paper 85", combo.Percent)
	}
	// At b = 600 all three columns print 66 in the paper.
	cells600, err := Fig10(Fig10Opts{N: 71, BMax: 600, KMin: 3, KMax: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells600 {
		if math.Abs(c.Percent-66.7) > 1.5 {
			t.Errorf("b=600 cell (x=%d) percent = %.1f, paper 66", c.X, c.Percent)
		}
	}
}

func TestFig11Decay(t *testing.T) {
	points := Fig11(0)
	if len(points) != 40 {
		t.Fatalf("points = %d, want 40", len(points))
	}
	for _, p := range points {
		if p.Fraction <= 0 || p.Fraction > 1 {
			t.Errorf("fraction %g out of range", p.Fraction)
		}
	}
	// Larger n decays slower at the same r, k.
	var n71, n257 float64
	for _, p := range points {
		if p.R == 3 && p.K == 5 {
			if p.N == 71 {
				n71 = p.Fraction
			}
			if p.N == 257 {
				n257 = p.Fraction
			}
		}
	}
	if n257 <= n71 {
		t.Errorf("n=257 fraction %g should exceed n=71 fraction %g", n257, n71)
	}
	var buf bytes.Buffer
	if err := RenderFig11(&buf, points); err != nil {
		t.Fatal(err)
	}
}

func TestFig2SmallExact(t *testing.T) {
	// Scaled-down Fig. 2: STS(13) placements attacked exactly.
	points, err := Fig2(Fig2Opts{
		N: 13, R: 3, X: 1,
		Bs:     []int{26, 52},
		SKs:    [][2]int{{2, 2}, {2, 3}, {3, 3}},
		Budget: -1, // unbounded: exact
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d, want 6", len(points))
	}
	for _, p := range points {
		if !p.Exact {
			t.Errorf("%+v: expected exact adversary", p)
		}
		if p.Gap < 0 {
			t.Errorf("%+v: Avail below the Lemma 2 bound", p)
		}
	}
	var buf bytes.Buffer
	if err := RenderFig2(&buf, points); err != nil {
		t.Fatal(err)
	}
}

func TestFig5CDFMonotone(t *testing.T) {
	curves, err := Fig5(Fig5Opts{NLo: 50, NHi: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 14 { // Σ_{r=2..5} r = 14 (x = 0..r-1)
		t.Fatalf("curves = %d, want 14", len(curves))
	}
	for _, c := range curves {
		prev := -1.0
		for _, v := range c.CDF {
			if v < prev-1e-12 {
				t.Errorf("r=%d x=%d: CDF not monotone", c.R, c.X)
				break
			}
			prev = v
		}
		if c.CDF[len(c.CDF)-1] < 1-1e-12 {
			t.Errorf("r=%d x=%d: CDF does not reach 1", c.R, c.X)
		}
	}
}

func TestFig6MuRelaxationHelps(t *testing.T) {
	curves, err := Fig6(Fig5Opts{NLo: 50, NHi: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("curves = %d, want 4", len(curves))
	}
	// μ <= 10 must dominate μ <= 5 pointwise for the same (r, x).
	for _, x := range []int{2, 3} {
		var mu5, mu10 []float64
		for _, c := range curves {
			if c.X != x {
				continue
			}
			if c.MaxMu == 5 {
				mu5 = c.CDF
			} else {
				mu10 = c.CDF
			}
		}
		for i := range mu5 {
			if mu10[i] < mu5[i]-1e-12 {
				t.Errorf("x=%d: μ<=10 CDF below μ<=5 at threshold %d", x, i)
				break
			}
		}
	}
	var buf bytes.Buffer
	if err := RenderFig5(&buf, curves); err != nil {
		t.Fatal(err)
	}
}

func TestFig7SmallScale(t *testing.T) {
	points, err := Fig7(Fig7Opts{
		Trials: 2,
		Bs:     []int{150},
		Configs: []struct{ N, R, S, KLo, KHi int }{
			{31, 5, 3, 3, 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %d, want 1", len(points))
	}
	p := points[0]
	if p.AvgAvail <= 0 || p.AvgAvail > float64(p.B) {
		t.Errorf("avgAvail %g out of range", p.AvgAvail)
	}
	if p.PrAvail < 0 || p.PrAvail > p.B {
		t.Errorf("prAvail %d out of range", p.PrAvail)
	}
	var buf bytes.Buffer
	if err := RenderFig7(&buf, points); err != nil {
		t.Fatal(err)
	}
}
