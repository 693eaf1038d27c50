package design

import (
	"reflect"
	"testing"
)

func TestSteinerExistsSpectra(t *testing.T) {
	tests := []struct {
		t_, v, k int
		want     bool
	}{
		// STS spectrum.
		{2, 7, 3, true}, {2, 9, 3, true}, {2, 8, 3, false}, {2, 69, 3, true},
		// 2-(v,4,1): v ≡ 1, 4 mod 12.
		{2, 13, 4, true}, {2, 16, 4, true}, {2, 64, 4, true}, {2, 70, 4, false},
		{2, 25, 4, true}, {2, 28, 4, true},
		// 2-(v,5,1): v ≡ 1, 5 mod 20.
		{2, 21, 5, true}, {2, 25, 5, true}, {2, 245, 5, true}, {2, 65, 5, true},
		{2, 30, 5, false},
		// SQS.
		{3, 8, 4, true}, {3, 14, 4, true}, {3, 70, 4, true}, {3, 9, 4, false},
		// 3-(v,5,1) known orders.
		{3, 17, 5, true}, {3, 26, 5, true}, {3, 65, 5, true}, {3, 257, 5, true},
		{3, 20, 5, false},
		// S(4,5,v) known orders; 17 proven nonexistent.
		{4, 11, 5, true}, {4, 23, 5, true}, {4, 71, 5, true}, {4, 243, 5, true},
		{4, 17, 5, false},
		// Degenerate families.
		{1, 12, 4, true}, {1, 13, 4, false},
		{5, 30, 5, true}, {2, 30, 2, true},
		{2, 4, 4, true}, {3, 5, 5, true},
		// Nonsense parameters.
		{0, 10, 3, false}, {4, 3, 5, false}, {2, 2, 3, false},
	}
	for _, tt := range tests {
		if got := SteinerExists(tt.t_, tt.v, tt.k); got != tt.want {
			t.Errorf("SteinerExists(%d, %d, %d) = %v, want %v", tt.t_, tt.v, tt.k, got, tt.want)
		}
	}
}

func TestExistsImpliesAdmissible(t *testing.T) {
	// Everything the catalog claims to exist must pass the divisibility
	// conditions — a consistency check between the two predicates.
	for k := 2; k <= 5; k++ {
		for tt := 2; tt <= k; tt++ {
			for v := k; v <= 400; v++ {
				if SteinerExists(tt, v, k) && !Admissible(tt, v, k, 1) {
					t.Errorf("SteinerExists(%d, %d, %d) but not Admissible", tt, v, k)
				}
			}
		}
	}
}

func TestConstructibleSubsetOfExists(t *testing.T) {
	for k := 2; k <= 5; k++ {
		for tt := 1; tt <= k; tt++ {
			for v := k; v <= 300; v++ {
				if SteinerConstructible(tt, v, k) && !SteinerExists(tt, v, k) {
					// Partition packings are constructible for any v but are
					// only true designs when k | v; skip that special case.
					if tt == 1 {
						continue
					}
					t.Errorf("SteinerConstructible(%d, %d, %d) but not SteinerExists", tt, v, k)
				}
			}
		}
	}
}

// TestBuildSteinerAllConstructible builds and fully verifies every
// constructible Steiner system with v within budget.
func TestBuildSteinerAllConstructible(t *testing.T) {
	maxV := 100
	if testing.Short() {
		maxV = 45
	}
	for k := 2; k <= 5; k++ {
		for tt := 2; tt <= k; tt++ {
			for v := k; v <= maxV; v++ {
				if !SteinerConstructible(tt, v, k) {
					continue
				}
				if tt == k && v > 12 {
					continue // complete designs get huge; covered elsewhere
				}
				p, err := BuildSteiner(tt, v, k)
				if err != nil {
					t.Fatalf("BuildSteiner(%d, %d, %d): %v", tt, v, k, err)
				}
				if p.V != v || p.K != k || p.T != tt || p.Lambda != 1 {
					t.Fatalf("BuildSteiner(%d, %d, %d): got %d-(%d, %d, %d)",
						tt, v, k, p.T, p.V, p.K, p.Lambda)
				}
				requireDesign(t, p, "BuildSteiner")
			}
		}
	}
}

func TestBuildSteinerUnconstructible(t *testing.T) {
	if _, err := BuildSteiner(4, 23, 5); err == nil {
		t.Error("BuildSteiner(4, 23, 5): want error (no S(4,5,23) construction)")
	}
	if _, err := BuildSteiner(2, 8, 3); err == nil {
		t.Error("BuildSteiner(2, 8, 3): want error (no STS(8))")
	}
}

func TestBestOrders(t *testing.T) {
	// Paper Fig. 4 orders (catalog view), with the 70 -> 64 substitution
	// for (n=71, r=4, x=1): a 2-(v, 4, 1) design needs v ≡ 1 or 4
	// (mod 12), which 70 violates and 64 satisfies.
	tests := []struct {
		t_, k, maxV, want int
	}{
		{2, 3, 31, 31},
		{2, 3, 71, 69},
		{2, 3, 257, 255},
		{2, 4, 31, 28},
		{2, 4, 71, 64}, // paper prints 70, which fails divisibility
		{2, 4, 257, 256},
		{3, 4, 31, 28},
		{3, 4, 71, 70},
		{3, 4, 257, 256},
		{2, 5, 31, 25},
		{2, 5, 71, 65},
		{2, 5, 257, 245},
		{3, 5, 31, 26},
		{3, 5, 71, 65},
		{3, 5, 257, 257},
		{4, 5, 31, 23},
		{4, 5, 71, 71},
		{4, 5, 257, 243},
	}
	for _, tt := range tests {
		got, ok := BestKnownOrder(tt.t_, tt.k, tt.maxV)
		if !ok || got != tt.want {
			t.Errorf("BestKnownOrder(%d, %d, %d) = %d, %v; want %d",
				tt.t_, tt.k, tt.maxV, got, ok, tt.want)
		}
	}
	// The trivial single-block 4-(5,5,1) system exists, so maxV = 10
	// resolves to v = 5; only maxV < k has no order at all.
	if got, ok := BestKnownOrder(4, 5, 10); !ok || got != 5 {
		t.Errorf("BestKnownOrder(4, 5, 10) = %d, %v; want 5", got, ok)
	}
	if _, ok := BestKnownOrder(4, 5, 4); ok {
		t.Error("BestKnownOrder(4, 5, 4): want none")
	}
}

func TestBestConstructibleOrder(t *testing.T) {
	tests := []struct {
		t_, k, maxV, want int
	}{
		{2, 3, 71, 69},
		{2, 4, 71, 64},
		{3, 4, 71, 64}, // SQS(70) exists but is not constructible; 64 = 2^6 is
		{2, 5, 71, 25},
		{3, 5, 71, 65},
		{2, 5, 257, 125},
	}
	for _, tt := range tests {
		got, ok := BestConstructibleOrder(tt.t_, tt.k, tt.maxV)
		if !ok || got != tt.want {
			t.Errorf("BestConstructibleOrder(%d, %d, %d) = %d, %v; want %d",
				tt.t_, tt.k, tt.maxV, got, ok, tt.want)
		}
	}
}

// TestKnownSteinerOrders checks the STS spectrum v ≡ 1, 3 (mod 6)
// through SteinerExists over 7..22.
func TestKnownSteinerOrders(t *testing.T) {
	var got []int
	for v := 7; v <= 22; v++ {
		if SteinerExists(2, v, 3) {
			got = append(got, v)
		}
	}
	if want := []int{7, 9, 13, 15, 19, 21}; !reflect.DeepEqual(got, want) {
		t.Fatalf("STS orders in 7..22 = %v, want %v", got, want)
	}
}

func TestLineGeometryFor(t *testing.T) {
	tests := []struct {
		v, k  int
		kind  geometryKind
		d     int
		found bool
	}{
		{16, 4, geomAffine, 2, true},
		{64, 4, geomAffine, 3, true},
		{256, 4, geomAffine, 4, true},
		{13, 4, geomProjective, 2, true},
		{40, 4, geomProjective, 3, true},
		{121, 4, geomProjective, 4, true},
		{25, 5, geomAffine, 2, true},
		{21, 5, geomProjective, 2, true},
		{85, 5, geomProjective, 3, true},
		{70, 4, 0, 0, false},
	}
	for _, tt := range tests {
		kind, d, found := lineGeometryFor(tt.v, tt.k)
		if found != tt.found || kind != tt.kind || d != tt.d {
			t.Errorf("lineGeometryFor(%d, %d) = (%v, %d, %v), want (%v, %d, %v)",
				tt.v, tt.k, kind, d, found, tt.kind, tt.d, tt.found)
		}
	}
}
