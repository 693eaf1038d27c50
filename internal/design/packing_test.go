package design

import (
	"math/rand"
	"testing"
)

func TestValidateCatchesViolations(t *testing.T) {
	good := &Packing{V: 6, K: 3, T: 2, Lambda: 1, Blocks: [][]int{{0, 1, 2}, {3, 4, 5}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid packing rejected: %v", err)
	}

	tests := []struct {
		name string
		p    *Packing
	}{
		{"pair covered twice", &Packing{V: 6, K: 3, T: 2, Lambda: 1,
			Blocks: [][]int{{0, 1, 2}, {0, 1, 3}}}},
		{"wrong block size", &Packing{V: 6, K: 3, T: 2, Lambda: 1,
			Blocks: [][]int{{0, 1}}}},
		{"point out of range", &Packing{V: 6, K: 3, T: 2, Lambda: 1,
			Blocks: [][]int{{0, 1, 6}}}},
		{"negative point", &Packing{V: 6, K: 3, T: 2, Lambda: 1,
			Blocks: [][]int{{-1, 1, 2}}}},
		{"unsorted block", &Packing{V: 6, K: 3, T: 2, Lambda: 1,
			Blocks: [][]int{{2, 1, 0}}}},
		{"repeated point", &Packing{V: 6, K: 3, T: 2, Lambda: 1,
			Blocks: [][]int{{1, 1, 2}}}},
		{"bad parameters", &Packing{V: 2, K: 3, T: 2, Lambda: 1}},
		{"bad lambda", &Packing{V: 6, K: 3, T: 2, Lambda: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); err == nil {
				t.Error("Validate accepted an invalid packing")
			}
		})
	}
}

func TestValidateRespectsLambda(t *testing.T) {
	p := &Packing{V: 6, K: 3, T: 2, Lambda: 2,
		Blocks: [][]int{{0, 1, 2}, {0, 1, 3}}}
	if err := p.Validate(); err != nil {
		t.Errorf("lambda=2 packing rejected: %v", err)
	}
	p.Blocks = append(p.Blocks, []int{0, 1, 4})
	if err := p.Validate(); err == nil {
		t.Error("pair {0,1} covered 3 times with lambda=2 accepted")
	}
}

func TestIsDesign(t *testing.T) {
	fano := &Packing{V: 7, K: 3, T: 2, Lambda: 1, Blocks: [][]int{
		{0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5},
	}}
	if err := fano.Validate(); err != nil {
		t.Fatalf("Fano plane rejected: %v", err)
	}
	if !fano.IsDesign() {
		t.Error("Fano plane not recognized as a design")
	}
	partial := &Packing{V: 7, K: 3, T: 2, Lambda: 1, Blocks: fano.Blocks[:6]}
	if partial.IsDesign() {
		t.Error("partial Fano plane recognized as a design")
	}
}

func TestMaxBlocksAndDesignBlocks(t *testing.T) {
	// STS(7): C(7,2)/C(3,2) = 7 blocks.
	if got := MaxBlocks(2, 7, 3, 1); got != 7 {
		t.Errorf("MaxBlocks(2,7,3,1) = %d, want 7", got)
	}
	n, exact := DesignBlocks(2, 7, 3, 1)
	if !exact || n != 7 {
		t.Errorf("DesignBlocks(2,7,3,1) = %d, %v; want 7, true", n, exact)
	}
	// 2-(8,3,1) fails divisibility.
	if _, exact := DesignBlocks(2, 8, 3, 1); exact {
		t.Error("DesignBlocks(2,8,3,1) should not be exact")
	}
	// Lambda scales linearly.
	if got := MaxBlocks(2, 7, 3, 3); got != 21 {
		t.Errorf("MaxBlocks(2,7,3,3) = %d, want 21", got)
	}
}

func TestAdmissible(t *testing.T) {
	tests := []struct {
		t_, v, k, lambda int
		want             bool
	}{
		{2, 7, 3, 1, true},
		{2, 9, 3, 1, true},
		{2, 8, 3, 1, false},
		{3, 8, 4, 1, true},   // SQS(8)
		{3, 9, 4, 1, false},  // 9 ≡ 3 mod 6
		{2, 70, 4, 1, false}, // the Fig. 4 OCR anomaly: 70·69/12 not integral
		{2, 64, 4, 1, true},  // AG(3,4)
		{3, 70, 4, 1, true},  // SQS(70) is admissible (and exists)
		{4, 71, 5, 1, true},
		{2, 5, 5, 1, true},
		{1, 10, 5, 1, true},
		{1, 11, 5, 1, false},
		{2, 7, 3, 0, false},
		{0, 7, 3, 1, false},
	}
	for _, tt := range tests {
		if got := Admissible(tt.t_, tt.v, tt.k, tt.lambda); got != tt.want {
			t.Errorf("Admissible(%d,%d,%d,%d) = %v, want %v",
				tt.t_, tt.v, tt.k, tt.lambda, got, tt.want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := &Packing{V: 6, K: 3, T: 2, Lambda: 1, Blocks: [][]int{{0, 1, 2}}}
	c := p.Clone()
	c.Blocks[0][0] = 5
	if p.Blocks[0][0] != 0 {
		t.Error("Clone shares block storage with the original")
	}
}

func TestRelabelPreservesDesignProperty(t *testing.T) {
	sts, err := SteinerTriple(13)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(13)
	relabeled := sts.relabel(perm)
	if err := relabeled.Validate(); err != nil {
		t.Fatalf("relabeled STS(13) invalid: %v", err)
	}
	if !relabeled.IsDesign() {
		t.Error("relabeled STS(13) is not a design")
	}
}

func TestEncodeDecodeSubsetKey(t *testing.T) {
	subs := [][]int{{0}, {0, 1}, {5, 100, 4000}, {1, 2, 3, 4, 5}}
	for _, s := range subs {
		key := encodeSubset(s)
		got := decodeSubsetKey(key, len(s))
		for i := range s {
			if got[i] != s[i] {
				t.Errorf("round trip %v -> %v", s, got)
			}
		}
	}
}

// Clone returns a deep copy of p.
func (p *Packing) Clone() *Packing {
	blocks := make([][]int, len(p.Blocks))
	for i, b := range p.Blocks {
		nb := make([]int, len(b))
		copy(nb, b)
		blocks[i] = nb
	}
	return &Packing{V: p.V, K: p.K, T: p.T, Lambda: p.Lambda, Blocks: blocks}
}

// relabel returns a copy of the packing with points renamed by perm
// (point i becomes perm[i]) and blocks re-sorted, for checking that the
// validators are invariant under isomorphism.
func (p *Packing) relabel(perm []int) *Packing {
	out := p.Clone()
	for _, b := range out.Blocks {
		for i := range b {
			b[i] = perm[b[i]]
		}
		sortBlock(b)
	}
	return out
}
