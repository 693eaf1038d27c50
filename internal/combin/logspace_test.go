package combin

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogSumExp(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{math.Log(1), math.Log(1), math.Log(2)},
		{math.Log(3), math.Log(5), math.Log(8)},
		{math.Inf(-1), math.Log(2), math.Log(2)},
		{math.Log(2), math.Inf(-1), math.Log(2)},
		{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
	}
	for _, tt := range tests {
		got := LogSumExp(tt.a, tt.b)
		if math.IsInf(tt.want, -1) {
			if !math.IsInf(got, -1) {
				t.Errorf("LogSumExp(%g, %g) = %g, want -Inf", tt.a, tt.b, got)
			}
			continue
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("LogSumExp(%g, %g) = %g, want %g", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestLogSumExpCommutative(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 700)
		b = math.Mod(b, 700)
		x := LogSumExp(a, b)
		y := LogSumExp(b, a)
		return x == y || math.Abs(x-y) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// directBinomTail computes P(X >= f) by direct summation in linear space,
// usable for small n as a reference implementation.
func directBinomTail(n, f int, p float64) float64 {
	sum := 0.0
	for x := f; x <= n; x++ {
		c, _ := Binomial(n, x)
		sum += float64(c) * math.Pow(p, float64(x)) * math.Pow(1-p, float64(n-x))
	}
	return sum
}

func TestLogBinomTailGEMatchesDirect(t *testing.T) {
	for _, n := range []int{1, 5, 20, 50} {
		for _, p := range []float64{0.01, 0.2, 0.5, 0.9} {
			logP := math.Log(p)
			log1mP := math.Log1p(-p)
			for f := 0; f <= n; f++ {
				want := directBinomTail(n, f, p)
				got := math.Exp(LogBinomTailGE(n, f, logP, log1mP))
				if math.Abs(got-want) > 1e-9 {
					t.Errorf("n=%d p=%g f=%d: tail = %g, want %g", n, p, f, got, want)
				}
			}
		}
	}
}

func TestLogBinomTailBoundaries(t *testing.T) {
	logP := math.Log(0.3)
	log1mP := math.Log(0.7)
	if got := LogBinomTailGE(10, 0, logP, log1mP); got != 0 {
		t.Errorf("P(X >= 0) log = %g, want 0", got)
	}
	if got := LogBinomTailGE(10, 11, logP, log1mP); !math.IsInf(got, -1) {
		t.Errorf("P(X >= n+1) log = %g, want -Inf", got)
	}
	if got := LogBinomTailLE(10, 10, logP, log1mP); got != 0 {
		t.Errorf("P(X <= n) log = %g, want 0", got)
	}
	if got := LogBinomTailLE(10, -1, logP, log1mP); !math.IsInf(got, -1) {
		t.Errorf("P(X <= -1) log = %g, want -Inf", got)
	}
}

func TestLogBinomTailComplement(t *testing.T) {
	// P(X >= f) + P(X <= f-1) = 1.
	n := 200
	p := 0.37
	logP := math.Log(p)
	log1mP := math.Log1p(-p)
	for _, f := range []int{1, 10, 74, 100, 150, 200} {
		ge := math.Exp(LogBinomTailGE(n, f, logP, log1mP))
		le := math.Exp(LogBinomTailLE(n, f-1, logP, log1mP))
		if math.Abs(ge+le-1) > 1e-9 {
			t.Errorf("f=%d: P(X>=f)+P(X<=f-1) = %g, want 1", f, ge+le)
		}
	}
}

func TestLogBinomTailLargeN(t *testing.T) {
	// Regression guard: the paper's largest workload is b = 38400 objects.
	// Check the tail at the mean is close to 1/2 and monotone decreasing.
	n := 38400
	p := 0.25
	logP := math.Log(p)
	log1mP := math.Log1p(-p)
	mean := int(float64(n) * p)
	atMean := math.Exp(LogBinomTailGE(n, mean, logP, log1mP))
	if atMean < 0.4 || atMean > 0.6 {
		t.Errorf("tail at mean = %g, want ~0.5", atMean)
	}
	prev := math.Inf(1)
	for f := 0; f <= n; f += 1200 {
		cur := LogBinomTailGE(n, f, logP, log1mP)
		if cur > prev+1e-12 {
			t.Fatalf("tail not monotone at f=%d: %g > %g", f, cur, prev)
		}
		prev = cur
	}
}

func TestLogBinomPMFSumsToOne(t *testing.T) {
	n := 30
	p := 0.42
	logP := math.Log(p)
	log1mP := math.Log1p(-p)
	sum := 0.0
	for x := 0; x <= n; x++ {
		sum += math.Exp(LogBinomPMF(n, x, logP, log1mP))
	}
	if math.Abs(sum-1) > 1e-10 {
		t.Errorf("PMF sums to %g, want 1", sum)
	}
	if !math.IsInf(LogBinomPMF(n, -1, logP, log1mP), -1) {
		t.Error("PMF(-1): want -Inf")
	}
}
