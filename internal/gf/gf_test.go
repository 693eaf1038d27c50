package gf

import (
	"testing"
)

var testOrders = []int{2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 125, 243, 256}

func TestNewRejectsNonPrimePowers(t *testing.T) {
	for _, q := range []int{0, 1, 6, 10, 12, 15, 100, 24} {
		if _, err := New(q); err == nil {
			t.Errorf("New(%d): want error for non prime power", q)
		}
	}
	if _, err := New(MaxOrder * 2); err == nil {
		t.Error("New above MaxOrder: want error")
	}
}

func TestPrimePower(t *testing.T) {
	tests := []struct {
		q, p, m int
		ok      bool
	}{
		{2, 2, 1, true},
		{4, 2, 2, true},
		{8, 2, 3, true},
		{9, 3, 2, true},
		{243, 3, 5, true},
		{257, 257, 1, true},
		{6, 0, 0, false},
		{1, 0, 0, false},
		{0, 0, 0, false},
	}
	for _, tt := range tests {
		p, m, ok := PrimePower(tt.q)
		if ok != tt.ok || p != tt.p || m != tt.m {
			t.Errorf("PrimePower(%d) = (%d, %d, %v), want (%d, %d, %v)",
				tt.q, p, m, ok, tt.p, tt.m, tt.ok)
		}
		if IsPrimePower(tt.q) != tt.ok {
			t.Errorf("IsPrimePower(%d) = %v, want %v", tt.q, !tt.ok, tt.ok)
		}
	}
}

// TestFieldAxioms exhaustively verifies the field axioms for every test
// order small enough, and on a coarse grid for the larger ones.
func TestFieldAxioms(t *testing.T) {
	for _, q := range testOrders {
		f, err := New(q)
		if err != nil {
			t.Fatalf("New(%d): %v", q, err)
		}
		step := 1
		if q > 32 {
			step = q / 17
			if step < 1 {
				step = 1
			}
		}
		for a := 0; a < q; a += step {
			for b := 0; b < q; b += step {
				// Commutativity.
				if f.Add(a, b) != f.Add(b, a) {
					t.Fatalf("GF(%d): add not commutative at (%d, %d)", q, a, b)
				}
				if f.Mul(a, b) != f.Mul(b, a) {
					t.Fatalf("GF(%d): mul not commutative at (%d, %d)", q, a, b)
				}
				for c := 0; c < q; c += step {
					// Associativity.
					if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
						t.Fatalf("GF(%d): add not associative at (%d, %d, %d)", q, a, b, c)
					}
					if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
						t.Fatalf("GF(%d): mul not associative at (%d, %d, %d)", q, a, b, c)
					}
					// Distributivity.
					if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
						t.Fatalf("GF(%d): not distributive at (%d, %d, %d)", q, a, b, c)
					}
				}
			}
		}
	}
}

func TestFieldIdentitiesAndInverses(t *testing.T) {
	for _, q := range testOrders {
		f, err := New(q)
		if err != nil {
			t.Fatalf("New(%d): %v", q, err)
		}
		for a := 0; a < q; a++ {
			if f.Add(a, 0) != a {
				t.Fatalf("GF(%d): %d + 0 != %d", q, a, a)
			}
			if f.Mul(a, 1) != a {
				t.Fatalf("GF(%d): %d * 1 != %d", q, a, a)
			}
			if f.Mul(a, 0) != 0 {
				t.Fatalf("GF(%d): %d * 0 != 0", q, a)
			}
			if f.Add(a, f.Neg(a)) != 0 {
				t.Fatalf("GF(%d): %d + (-%d) != 0", q, a, a)
			}
			if f.Sub(a, a) != 0 {
				t.Fatalf("GF(%d): %d - %d != 0", q, a, a)
			}
			if a != 0 {
				inv, err := f.Inv(a)
				if err != nil {
					t.Fatalf("GF(%d): Inv(%d): %v", q, a, err)
				}
				if f.Mul(a, inv) != 1 {
					t.Fatalf("GF(%d): %d * %d != 1", q, a, inv)
				}
				d, err := f.Div(1, a)
				if err != nil || d != inv {
					t.Fatalf("GF(%d): Div(1, %d) = %d, %v; want %d", q, a, d, err, inv)
				}
			}
		}
		if _, err := f.Inv(0); err == nil {
			t.Fatalf("GF(%d): Inv(0) should fail", q)
		}
		if _, err := f.Div(1, 0); err == nil {
			t.Fatalf("GF(%d): Div by zero should fail", q)
		}
	}
}

func TestFermatLittleGeneralized(t *testing.T) {
	// a^q == a for all a in GF(q).
	for _, q := range testOrders {
		f, err := New(q)
		if err != nil {
			t.Fatalf("New(%d): %v", q, err)
		}
		for a := 0; a < q; a++ {
			if got := f.Pow(a, q); got != a {
				t.Fatalf("GF(%d): %d^%d = %d, want %d", q, a, q, got, a)
			}
		}
	}
}

func TestGeneratorOrder(t *testing.T) {
	for _, q := range testOrders {
		if q == 2 {
			continue
		}
		f, err := New(q)
		if err != nil {
			t.Fatalf("New(%d): %v", q, err)
		}
		g := f.gen
		seen := make(map[int]bool, q-1)
		cur := 1
		for i := 0; i < q-1; i++ {
			if seen[cur] {
				t.Fatalf("GF(%d): generator %d cycles early at step %d", q, g, i)
			}
			seen[cur] = true
			cur = f.Mul(cur, g)
		}
		if cur != 1 {
			t.Fatalf("GF(%d): g^(q-1) = %d, want 1", q, cur)
		}
		if len(seen) != q-1 {
			t.Fatalf("GF(%d): generator hits %d elements, want %d", q, len(seen), q-1)
		}
	}
}

func TestCharacteristic(t *testing.T) {
	// Adding 1 to itself P times gives 0.
	for _, q := range []int{4, 8, 9, 25, 27, 49} {
		f, err := New(q)
		if err != nil {
			t.Fatalf("New(%d): %v", q, err)
		}
		sum := 0
		for i := 0; i < f.P; i++ {
			sum = f.Add(sum, 1)
		}
		if sum != 0 {
			t.Errorf("GF(%d): 1 added P=%d times = %d, want 0", q, f.P, sum)
		}
	}
}

func TestPowEdgeCases(t *testing.T) {
	f, err := New(9)
	if err != nil {
		t.Fatal(err)
	}
	if f.Pow(0, 0) != 1 {
		t.Error("0^0 != 1")
	}
	if f.Pow(0, 5) != 0 {
		t.Error("0^5 != 0")
	}
	if f.Pow(5, 0) != 1 {
		t.Error("a^0 != 1")
	}
	defer func() {
		if recover() == nil {
			t.Error("Pow with negative exponent should panic")
		}
	}()
	f.Pow(2, -1)
}

func TestFrobeniusIsAdditive(t *testing.T) {
	// (a+b)^p == a^p + b^p in characteristic p: a strong consistency check
	// coupling the additive and multiplicative structures.
	for _, q := range []int{4, 8, 9, 16, 25, 27, 64} {
		f, err := New(q)
		if err != nil {
			t.Fatalf("New(%d): %v", q, err)
		}
		for a := 0; a < q; a++ {
			for b := 0; b < q; b++ {
				left := f.Pow(f.Add(a, b), f.P)
				right := f.Add(f.Pow(a, f.P), f.Pow(b, f.P))
				if left != right {
					t.Fatalf("GF(%d): Frobenius fails at (%d, %d): %d != %d", q, a, b, left, right)
				}
			}
		}
	}
}
