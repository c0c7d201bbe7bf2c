package selection

import (
	"cmp"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func testRNG() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestSelectSmall(t *testing.T) {
	xs := []int64{5, 1, 4, 2, 3}
	for k := 0; k < 5; k++ {
		cp := append([]int64(nil), xs...)
		got, err := Select(cp, k, testRNG())
		if err != nil {
			t.Fatalf("Select(k=%d): %v", k, err)
		}
		if want := int64(k + 1); got != want {
			t.Errorf("Select(k=%d) = %d, want %d", k, got, want)
		}
	}
}

func TestSelectSingleElement(t *testing.T) {
	got, err := Select([]int64{7}, 0, testRNG())
	if err != nil || got != 7 {
		t.Fatalf("Select single = %d, %v; want 7, nil", got, err)
	}
}

func TestSelectRankOutOfRange(t *testing.T) {
	for _, k := range []int{-1, 3, 100} {
		if _, err := Select([]int64{1, 2, 3}, k, testRNG()); !errors.Is(err, ErrRankOutOfRange) {
			t.Errorf("Select(k=%d) error = %v, want ErrRankOutOfRange", k, err)
		}
	}
	if _, err := Select([]int64{}, 0, testRNG()); !errors.Is(err, ErrRankOutOfRange) {
		t.Errorf("Select on empty slice error = %v, want ErrRankOutOfRange", err)
	}
}

func TestSelectMatchesSortAllRanks(t *testing.T) {
	rng := testRNG()
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(50)) // heavy duplicates on purpose
		}
		want := sortedCopy(xs)
		for k := 0; k < n; k++ {
			cp := append([]int64(nil), xs...)
			got, err := Select(cp, k, rng)
			if err != nil {
				t.Fatalf("Select: %v", err)
			}
			if got != want[k] {
				t.Fatalf("trial %d: Select(k=%d) = %d, want %d", trial, k, got, want[k])
			}
		}
	}
}

// sortedCopy returns a sorted copy of xs, the reference the selection
// tests compare against.
func sortedCopy[T cmp.Ordered](xs []T) []T {
	out := make([]T, len(xs))
	copy(out, xs)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// selectDeterministic returns the element of rank k of xs, selected with
// the median-of-medians pivot rule from the first iteration: the fallback
// that keeps Select and MultiSelect linear in the worst case.
func selectDeterministic(xs []int64, k int) int64 {
	selectInPlaceDeterministic(xs, 0, len(xs), k)
	return xs[k]
}

func TestSelectDeterministicMatchesSort(t *testing.T) {
	rng := testRNG()
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(500)
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Int63n(100)
		}
		want := sortedCopy(xs)
		for _, k := range []int{0, n / 4, n / 2, n - 1} {
			cp := append([]int64(nil), xs...)
			if got := selectDeterministic(cp, k); got != want[k] {
				t.Fatalf("selectDeterministic(k=%d) = %d, want %d", k, got, want[k])
			}
		}
	}
}

func TestSelectDeterministicAdversarialOrders(t *testing.T) {
	// Sorted, reverse-sorted and organ-pipe inputs exercise the
	// median-of-medians path without randomness to save it.
	n := 2000
	inputs := map[string]func(i int) int64{
		"sorted":    func(i int) int64 { return int64(i) },
		"reverse":   func(i int) int64 { return int64(n - i) },
		"organpipe": func(i int) int64 { return int64(min(i, n-i)) },
		"constant":  func(i int) int64 { return 7 },
	}
	for name, gen := range inputs {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = gen(i)
		}
		want := sortedCopy(xs)
		for _, k := range []int{0, 1, n / 2, n - 2, n - 1} {
			cp := append([]int64(nil), xs...)
			if got := selectDeterministic(cp, k); got != want[k] {
				t.Errorf("%s: selectDeterministic(k=%d) = %d, want %d", name, k, got, want[k])
			}
		}
	}
}

func TestSelectPartitionsAroundRank(t *testing.T) {
	// After Select(xs, k), everything left of k must be ≤ xs[k] and
	// everything right must be ≥ xs[k].
	rng := testRNG()
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = rng.Int63n(200)
	}
	k := 137
	v, err := Select(xs, k, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if xs[i] > v {
			t.Fatalf("xs[%d]=%d > selected %d", i, xs[i], v)
		}
	}
	for i := k + 1; i < len(xs); i++ {
		if xs[i] < v {
			t.Fatalf("xs[%d]=%d < selected %d", i, xs[i], v)
		}
	}
}

func TestSelectFloat64(t *testing.T) {
	xs := []float64{3.5, -1.25, 0, 7.75, 2.5}
	got, err := Select(xs, 2, testRNG())
	if err != nil || got != 2.5 {
		t.Fatalf("Select float = %v, %v; want 2.5", got, err)
	}
}

func TestSelectString(t *testing.T) {
	xs := []string{"pear", "apple", "fig", "date"}
	got, err := Select(xs, 0, testRNG())
	if err != nil || got != "apple" {
		t.Fatalf("Select string = %q, %v; want apple", got, err)
	}
}

// Property: Select(xs, k) == sort(xs)[k] for random inputs and ranks.
func TestQuickSelectEqualsSort(t *testing.T) {
	rng := testRNG()
	f := func(raw []int64, kRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		k := int(kRaw) % len(raw)
		want := sortedCopy(raw)[k]
		got, err := Select(append([]int64(nil), raw...), k, rng)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: selection preserves the multiset of elements.
func TestQuickSelectIsPermutation(t *testing.T) {
	rng := testRNG()
	f := func(raw []int64, kRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		k := int(kRaw) % len(raw)
		cp := append([]int64(nil), raw...)
		if _, err := Select(cp, k, rng); err != nil {
			return false
		}
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		want := sortedCopy(raw)
		for i := range cp {
			if cp[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
