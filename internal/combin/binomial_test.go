package combin

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBinomialSmallValues(t *testing.T) {
	tests := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1},
		{1, 0, 1},
		{1, 1, 1},
		{5, 2, 10},
		{10, 3, 120},
		{52, 5, 2598960},
		{71, 2, 2485},
		{71, 5, 13019909},
		{257, 4, 177556160},
		{800, 5, 2696682400160},
		{38400, 1, 38400},
	}
	for _, tt := range tests {
		got, err := Binomial(tt.n, tt.k)
		if err != nil {
			t.Fatalf("Binomial(%d, %d): unexpected error %v", tt.n, tt.k, err)
		}
		if got != tt.want {
			t.Errorf("Binomial(%d, %d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestBinomialConventions(t *testing.T) {
	if v, err := Binomial(5, -1); err != nil || v != 0 {
		t.Errorf("Binomial(5, -1) = %d, %v; want 0, nil", v, err)
	}
	if v, err := Binomial(5, 6); err != nil || v != 0 {
		t.Errorf("Binomial(5, 6) = %d, %v; want 0, nil", v, err)
	}
	if _, err := Binomial(-1, 0); err == nil {
		t.Error("Binomial(-1, 0): want error for negative n")
	}
}

func TestBinomialOverflow(t *testing.T) {
	// C(1000, 500) vastly exceeds int64.
	if _, err := Binomial(1000, 500); !errors.Is(err, ErrOverflow) {
		t.Errorf("Binomial(1000, 500): want ErrOverflow, got %v", err)
	}
	// C(66, 33) = 7219428434016265740 fits in int64 (max ~9.22e18).
	got, err := Binomial(66, 33)
	if err != nil {
		t.Fatalf("Binomial(66, 33): %v", err)
	}
	if got != 7219428434016265740 {
		t.Errorf("Binomial(66, 33) = %d, want 7219428434016265740", got)
	}
}

func TestBinomialSymmetry(t *testing.T) {
	f := func(n8, k8 uint8) bool {
		n := int(n8 % 60)
		k := int(k8) % (n + 1)
		a, err1 := Binomial(n, k)
		b, err2 := Binomial(n, n-k)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialPascalIdentity(t *testing.T) {
	f := func(n8, k8 uint8) bool {
		n := 1 + int(n8%59)
		k := 1 + int(k8)%n
		whole, _ := Binomial(n, k)
		left, _ := Binomial(n-1, k-1)
		right, _ := Binomial(n-1, k)
		return whole == left+right
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChoose(t *testing.T) {
	if got := Choose(6, 2); got != 15 {
		t.Errorf("Choose(6, 2) = %d, want 15", got)
	}
	if got := Choose(6, 9); got != 0 {
		t.Errorf("Choose(6, 9) = %d, want 0", got)
	}
	if got := Choose(1000, 500); got != 0 {
		t.Errorf("Choose(1000, 500) = %d, want 0 on overflow", got)
	}
}

func TestLogBinomialMatchesExact(t *testing.T) {
	for n := 0; n <= 60; n++ {
		for k := 0; k <= n; k++ {
			exact, err := Binomial(n, k)
			if err != nil {
				t.Fatalf("Binomial(%d,%d): %v", n, k, err)
			}
			got := LogBinomial(n, k)
			want := math.Log(float64(exact))
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Errorf("LogBinomial(%d, %d) = %g, want %g", n, k, got, want)
			}
		}
	}
}

func TestLogBinomialOutOfRange(t *testing.T) {
	if !math.IsInf(LogBinomial(5, 7), -1) {
		t.Error("LogBinomial(5, 7): want -Inf")
	}
	if !math.IsInf(LogBinomial(5, -1), -1) {
		t.Error("LogBinomial(5, -1): want -Inf")
	}
}

func TestCeilFloorDiv(t *testing.T) {
	tests := []struct {
		a, b, ceil, floor int64
	}{
		{7, 2, 4, 3},
		{8, 2, 4, 4},
		{0, 3, 0, 0},
		{-7, 2, -3, -4},
	}
	for _, tt := range tests {
		if c := CeilDiv(tt.a, tt.b); c != tt.ceil {
			t.Errorf("CeilDiv(%d, %d) = %d, want %d", tt.a, tt.b, c, tt.ceil)
		}
		if f := FloorDiv(tt.a, tt.b); f != tt.floor {
			t.Errorf("FloorDiv(%d, %d) = %d, want %d", tt.a, tt.b, f, tt.floor)
		}
	}
}
