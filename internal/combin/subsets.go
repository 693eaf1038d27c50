package combin

// FirstSubset fills dst with the lexicographically first k-subset of
// {0, ..., n-1}, namely {0, 1, ..., k-1}, and reports whether such a subset
// exists (k <= n, k >= 0). dst must have length k.
func FirstSubset(n int, dst []int) bool {
	k := len(dst)
	if k > n {
		return false
	}
	for i := range dst {
		dst[i] = i
	}
	return true
}

// NextSubset advances s, a strictly increasing k-subset of {0, ..., n-1},
// to its lexicographic successor in place. It reports false when s was the
// last subset (in which case s is left unchanged).
func NextSubset(n int, s []int) bool {
	k := len(s)
	i := k - 1
	for i >= 0 && s[i] == n-k+i {
		i--
	}
	if i < 0 {
		return false
	}
	s[i]++
	for j := i + 1; j < k; j++ {
		s[j] = s[j-1] + 1
	}
	return true
}

// ForEachSubset invokes fn for every k-subset of {0, ..., n-1} in
// lexicographic order. The slice passed to fn is reused between calls and
// must not be retained. Iteration stops early if fn returns false.
func ForEachSubset(n, k int, fn func(s []int) bool) {
	if k < 0 || k > n {
		return
	}
	s := make([]int, k)
	if !FirstSubset(n, s) {
		return
	}
	for {
		if !fn(s) {
			return
		}
		if !NextSubset(n, s) {
			return
		}
	}
}
