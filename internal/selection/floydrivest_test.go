package selection

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// floydRivest selects rank k of xs in place with floydRivestInPlace and
// returns it.
func floydRivest(xs []int64, k int, rng *rand.Rand) int64 {
	floydRivestInPlace(xs, 0, len(xs), k, rng)
	return xs[k]
}

func TestFloydRivestSmall(t *testing.T) {
	xs := []int64{5, 1, 4, 2, 3}
	for k := 0; k < 5; k++ {
		cp := append([]int64(nil), xs...)
		if got := floydRivest(cp, k, testRNG()); got != int64(k+1) {
			t.Errorf("k=%d: got %d, want %d", k, got, k+1)
		}
	}
}

func TestFloydRivestLarge(t *testing.T) {
	rng := testRNG()
	n := 100_000
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = rng.Int63n(1 << 40)
	}
	want := sortedCopy(xs)
	for _, k := range []int{0, 1, n / 4, n / 2, 3 * n / 4, n - 2, n - 1} {
		cp := append([]int64(nil), xs...)
		if got := floydRivest(cp, k, rng); got != want[k] {
			t.Errorf("k=%d: got %d, want %d", k, got, want[k])
		}
	}
}

func TestFloydRivestDuplicateHeavy(t *testing.T) {
	rng := testRNG()
	n := 50_000
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(rng.Intn(3)) // retry-fallback path
	}
	want := sortedCopy(xs)
	for _, k := range []int{0, n / 2, n - 1} {
		cp := append([]int64(nil), xs...)
		if got := floydRivest(cp, k, rng); got != want[k] {
			t.Errorf("k=%d: got %d, want %d", k, got, want[k])
		}
	}
}

func TestFloydRivestSortedInput(t *testing.T) {
	n := 20_000
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
	}
	if got := floydRivest(xs, n/3, testRNG()); got != int64(n/3) {
		t.Fatalf("got %d; want %d", got, n/3)
	}
}

func TestQuickFloydRivestEqualsSort(t *testing.T) {
	rng := testRNG()
	f := func(raw []int64, kRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		k := int(kRaw) % len(raw)
		want := sortedCopy(raw)[k]
		return floydRivest(append([]int64(nil), raw...), k, rng) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(77))}); err != nil {
		t.Fatal(err)
	}
}
