package combin

import "math"

// LogSumExp returns ln(exp(a) + exp(b)) computed stably.
func LogSumExp(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// LogBinomPMF returns ln P(X = x) for X ~ Binomial(n, p), where the success
// probability is supplied in log space as logP = ln p and log1mP = ln(1-p).
// Supplying both logs avoids catastrophic cancellation when p is extreme.
func LogBinomPMF(n, x int, logP, log1mP float64) float64 {
	if x < 0 || x > n {
		return math.Inf(-1)
	}
	term := LogBinomial(n, x)
	if x > 0 {
		term += float64(x) * logP
	}
	if n-x > 0 {
		term += float64(n-x) * log1mP
	}
	return term
}

// LogBinomTailGE returns ln P(X >= f) for X ~ Binomial(n, p) with the
// success probability supplied in log space (see LogBinomPMF).
//
// The sum is evaluated in log space starting at f; once past the mode of the
// distribution the terms decay geometrically, so summation stops when the
// running term can no longer affect the result. The result is exact to
// float64 rounding for all parameter sizes used in the paper (n up to
// 38400 objects).
func LogBinomTailGE(n, f int, logP, log1mP float64) float64 {
	if f <= 0 {
		return 0 // P(X >= 0) = 1
	}
	if f > n {
		return math.Inf(-1)
	}
	// Accumulate terms from x = f upward.
	logSum := math.Inf(-1)
	maxTerm := math.Inf(-1)
	mode := int(math.Floor(float64(n+1) * math.Exp(logP)))
	for x := f; x <= n; x++ {
		term := LogBinomPMF(n, x, logP, log1mP)
		logSum = LogSumExp(logSum, term)
		if term > maxTerm {
			maxTerm = term
		}
		// Past the mode the PMF is strictly decreasing; once the current
		// term is negligible relative to the accumulated sum, stop.
		if x > mode && term < logSum-46 { // e^-46 ~ 1e-20
			break
		}
	}
	if logSum > 0 {
		// P(X >= f) <= 1; clamp rounding noise.
		logSum = 0
	}
	return logSum
}

// LogBinomTailLE returns ln P(X <= f) for X ~ Binomial(n, p) with the
// success probability supplied in log space (see LogBinomPMF).
func LogBinomTailLE(n, f int, logP, log1mP float64) float64 {
	if f >= n {
		return 0
	}
	if f < 0 {
		return math.Inf(-1)
	}
	// P(X <= f) = P(n - X >= n - f) where n - X ~ Binomial(n, 1-p).
	return LogBinomTailGE(n, n-f, log1mP, logP)
}
