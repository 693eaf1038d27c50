// Package randplace implements the paper's comparison baseline: Random
// load-balanced replica placement (Definition 4) and the analysis of its
// availability under a worst-case adversary (Sec. IV):
//
//   - Vuln^rnd(f), the expected number of (K, F) pairs where failing the
//     k nodes K fails at least the |F| >= f objects F (Definition 5),
//     evaluated in the b-independent limit of Theorem 2;
//   - prAvail^rnd = b − max{f : Vuln^rnd(f) >= 1}, the number of objects
//     that are "probably available" (Definition 6);
//   - the s = 1 upper bound prAvail^rnd <= b(1−1/b)^{k·ℓ} (Lemma 4);
//   - a generator for concrete Random placements and an empirical
//     avgAvail^rnd estimator driven by the adversary package.
//
// All probability mass computations run in log space (see
// internal/combin) so that the paper's largest workloads (b = 38400,
// C(n, r) up to ~10^9) evaluate without under/overflow.
package randplace

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/combin"
	"repro/internal/placement"
)

// Generate produces a Random load-balanced placement: every object gets r
// replicas on distinct nodes chosen uniformly among nodes that still have
// spare capacity under the load cap ℓ = ceil(r·b/n). The procedure
// resamples (bounded retries) on the rare end-game dead ends where fewer
// than r nodes have spare capacity.
func Generate(p placement.Params, seed int64) (*placement.Placement, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	limit := p.Load()
	const maxAttempts = 64
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < maxAttempts; attempt++ {
		pl, ok := tryGenerate(p, limit, rng)
		if ok {
			return pl, nil
		}
	}
	return nil, fmt.Errorf("randplace: failed to place %d objects within load cap %d after %d attempts",
		p.B, limit, maxAttempts)
}

func tryGenerate(p placement.Params, limit int, rng *rand.Rand) (*placement.Placement, bool) {
	loads := make([]int, p.N)
	available := make([]int, p.N) // nodes with loads < limit
	for i := range available {
		available[i] = i
	}
	pl := placement.NewPlacement(p.N, p.R)
	nodes := make([]int, p.R)
	for obj := 0; obj < p.B; obj++ {
		if len(available) < p.R {
			return nil, false
		}
		// Partial Fisher-Yates over the available list: pick r distinct.
		for i := 0; i < p.R; i++ {
			j := i + rng.Intn(len(available)-i)
			available[i], available[j] = available[j], available[i]
			nodes[i] = available[i]
		}
		if err := pl.Add(nodes); err != nil {
			return nil, false
		}
		// Apply load increments and evict saturated nodes. Iterate from
		// the back so removals do not disturb earlier picked slots.
		for i := p.R - 1; i >= 0; i-- {
			nd := available[i]
			loads[nd]++
			if loads[nd] >= limit {
				available[i] = available[len(available)-1]
				available = available[:len(available)-1]
			}
		}
	}
	return pl, true
}

// Alpha returns α(n, k, r, s) = Σ_{s'=s}^{min(r,k)} C(k, s')·C(n−k, r−s'),
// the number of r-subsets of nodes with at least s members inside a fixed
// k-set (Theorem 2), in log space. The second value is the log of the
// complement C(n, r) − α (computed directly as the s' < s sum for
// numerical accuracy).
func Alpha(n, k, r, s int) (logAlpha, logComplement float64) {
	logAlpha = math.Inf(-1)
	logComplement = math.Inf(-1)
	hi := r
	if k < r {
		hi = k
	}
	for sp := 0; sp <= hi; sp++ {
		term := combin.LogBinomial(k, sp) + combin.LogBinomial(n-k, r-sp)
		if sp >= s {
			logAlpha = combin.LogSumExp(logAlpha, term)
		} else {
			logComplement = combin.LogSumExp(logComplement, term)
		}
	}
	return logAlpha, logComplement
}

// LogVuln returns ln Vuln^rnd(f) in the b-independent limit of Theorem 2:
//
//	Vuln(f) → C(n,k) · P(X >= f),  X ~ Binomial(b, α/C(n,r)).
func LogVuln(p placement.Params, f int) float64 {
	logAlpha, logComp := Alpha(p.N, p.K, p.R, p.S)
	logTotal := combin.LogBinomial(p.N, p.R)
	logP := logAlpha - logTotal
	log1mP := logComp - logTotal
	return combin.LogBinomial(p.N, p.K) + combin.LogBinomTailGE(p.B, f, logP, log1mP)
}

// PrAvail returns prAvail^rnd = b − max{f : Vuln^rnd(f) >= 1}
// (Definition 6), using the Theorem 2 limit for Vuln. Vuln is
// non-increasing in f, so the threshold is found by binary search.
func PrAvail(p placement.Params) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.B == 0 {
		return 0, nil
	}
	// Invariant: Vuln(lo) >= 1 (f = 0 always qualifies: the empty F with
	// any K gives at least one pair). Find the largest qualifying f.
	lo, hi := 0, p.B
	if LogVuln(p, hi) >= 0 {
		return 0, nil
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if LogVuln(p, mid) >= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return p.B - lo, nil
}

// PrAvailTable returns the prAvail convention that reproduces the
// paper's published tables (Figs. 9 and 10): b − min{f : Vuln^rnd(f) < 1},
// which is exactly one less than the literal reading of Definition 6
// implemented by PrAvail (clamped at 0).
//
// Reproduction finding: reverse-engineering the published Fig. 9a cells
// (e.g. r=3, s=3, k=3, b=600 prints 66%, which forces prAvail = 597,
// while Definition 6 with the Theorem 2 limit yields 598) shows the
// authors' implementation used this convention consistently;
// TestPrAvailTableConvention pins that cell.
func PrAvailTable(p placement.Params) (int, error) {
	v, err := PrAvail(p)
	if err != nil {
		return 0, err
	}
	if v == 0 {
		return 0, nil
	}
	return v - 1, nil
}

// Lemma4Bound returns the s = 1 upper bound of Lemma 4:
// prAvail^rnd <= b·(1 − 1/b)^{k·ℓ} with ℓ = ceil(r·b/n) (valid for
// k < n/2).
func Lemma4Bound(p placement.Params) float64 {
	b := float64(p.B)
	exponent := float64(p.K) * float64(p.Load())
	return b * math.Pow(1-1/b, exponent)
}

// AvgAvailResult reports an empirical availability estimate.
type AvgAvailResult struct {
	Mean    float64 // average Avail over the trials
	Min     int     // worst trial
	Max     int     // best trial
	Trials  int
	Exact   bool // every trial's adversary search completed exactly
	Busiest int  // highest node load observed (load-balance diagnostics)
}

// AvgAvail estimates avgAvail^rnd: the empirical mean of Avail(π) over
// `trials` independent Random placements, each attacked by the worst-case
// adversary (budget 0 means exact search; positive budgets trade
// exactness for time, as recorded in the result).
func AvgAvail(p placement.Params, trials int, seed int64, budget int64) (AvgAvailResult, error) {
	if trials < 1 {
		return AvgAvailResult{}, fmt.Errorf("randplace: trials = %d must be positive", trials)
	}
	res := AvgAvailResult{Trials: trials, Exact: true, Min: math.MaxInt}
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		pl, err := Generate(p, seed+int64(trial))
		if err != nil {
			return AvgAvailResult{}, err
		}
		if l := pl.MaxLoad(); l > res.Busiest {
			res.Busiest = l
		}
		attack, err := adversary.WorstCaseWith(pl, p.S, p.K, adversary.SearchOpts{Budget: budget})
		if err != nil {
			return AvgAvailResult{}, err
		}
		if !attack.Exact {
			res.Exact = false
		}
		avail := attack.Avail(p.B)
		sum += float64(avail)
		if avail < res.Min {
			res.Min = avail
		}
		if avail > res.Max {
			res.Max = avail
		}
	}
	res.Mean = sum / float64(trials)
	return res, nil
}
