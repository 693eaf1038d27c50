package combin

import (
	"reflect"
	"testing"
)

// TestForEachSubsetCountsAndOrder checks that ForEachSubset visits all
// C(n, k) subsets in strictly increasing lex order: the constrained
// engine's lex-rank tie rule rests on that order.
func TestForEachSubsetCountsAndOrder(t *testing.T) {
	for n := 0; n <= 12; n++ {
		for k := 0; k <= n; k++ {
			var count int64
			var prev []int
			ForEachSubset(n, k, func(s []int) bool {
				count++
				// Strictly increasing within the subset.
				for i := 1; i < len(s); i++ {
					if s[i] <= s[i-1] {
						t.Fatalf("n=%d k=%d: subset %v not increasing", n, k, s)
					}
				}
				// Lexicographically after the previous subset.
				if prev != nil && !lexLess(prev, s) {
					t.Fatalf("n=%d k=%d: %v not after %v", n, k, s, prev)
				}
				prev = append(prev[:0], s...)
				return true
			})
			want := Choose(n, k)
			if count != want {
				t.Errorf("n=%d k=%d: enumerated %d subsets, want %d", n, k, count, want)
			}
		}
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestForEachSubsetEarlyStop(t *testing.T) {
	count := 0
	ForEachSubset(10, 3, func(s []int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop after %d subsets, want 5", count)
	}
}

func TestForEachSubsetInvalidK(t *testing.T) {
	called := false
	ForEachSubset(3, 5, func(s []int) bool { called = true; return true })
	if called {
		t.Error("ForEachSubset(3, 5) should not invoke fn")
	}
	ForEachSubset(3, -1, func(s []int) bool { called = true; return true })
	if called {
		t.Error("ForEachSubset(3, -1) should not invoke fn")
	}
}

// TestSubsetRankUnrankRoundTrip checks that the i-th subset ForEachSubset
// visits is the subset of lex rank i, against an independent
// combinatorial-number-system rank and unrank: the constrained engine
// counts visits as lex ranks for its tie rule.
func TestSubsetRankUnrankRoundTrip(t *testing.T) {
	n, k := 12, 4
	var rank int64
	ForEachSubset(n, k, func(s []int) bool {
		if got := lexRank(n, s); got != rank {
			t.Fatalf("lexRank(%v) = %d, want %d", s, got, rank)
		}
		if dst := lexUnrank(n, k, rank); !reflect.DeepEqual(dst, s) {
			t.Fatalf("lexUnrank(%d) = %v, want %v", rank, dst, s)
		}
		rank++
		return true
	})
	if rank != Choose(n, k) {
		t.Fatalf("enumerated %d ranks, want %d", rank, Choose(n, k))
	}
}

// lexRank is the lex rank of the increasing k-subset s of {0, ..., n-1}:
// for each position, count the subsets that agree on the prefix and put a
// smaller element there.
func lexRank(n int, s []int) int64 {
	k := len(s)
	var r int64
	lo := 0
	for i, x := range s {
		for v := lo; v < x; v++ {
			r += Choose(n-1-v, k-1-i)
		}
		lo = x + 1
	}
	return r
}

// lexUnrank is the inverse of lexRank.
func lexUnrank(n, k int, r int64) []int {
	dst := make([]int, 0, k)
	v := 0
	for i := 0; i < k; i++ {
		for {
			c := Choose(n-1-v, k-1-i)
			if r < c {
				break
			}
			r -= c
			v++
		}
		dst = append(dst, v)
		v++
	}
	return dst
}

func TestFirstNextSubset(t *testing.T) {
	s := make([]int, 3)
	if !FirstSubset(5, s) {
		t.Fatal("FirstSubset(5, len 3) failed")
	}
	if !reflect.DeepEqual(s, []int{0, 1, 2}) {
		t.Fatalf("FirstSubset = %v", s)
	}
	last := []int{2, 3, 4}
	copy(s, last)
	if NextSubset(5, s) {
		t.Errorf("NextSubset past the end returned true, s = %v", s)
	}
	if FirstSubset(2, make([]int, 3)) {
		t.Error("FirstSubset(2, len 3) should fail")
	}
}
