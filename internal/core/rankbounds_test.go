package core

import (
	"math/rand"
	"sort"
	"testing"
)

// rankBoundsSummary builds a summary with a large sample list so the
// binary-search cost dominates.
func rankBoundsSummary(tb testing.TB, n int) *Summary[int64] {
	tb.Helper()
	cfg := Config{RunLen: 1 << 12, SampleSize: 1 << 8}
	sb, err := NewStreamBuilder[int64](cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		if err := sb.Add(rng.Int63n(1 << 30)); err != nil {
			tb.Fatal(err)
		}
	}
	s, err := sb.Summary()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestRankBoundsMatchesSortSearch pins the open-coded binary search in
// RankBounds to the sort.Search semantics it replaced.
func TestRankBoundsMatchesSortSearch(t *testing.T) {
	s := rankBoundsSummary(t, 200_000)
	samples := s.Samples()
	rng := rand.New(rand.NewSource(11))
	probe := make([]int64, 0, 2048)
	for i := 0; i < 1024; i++ {
		probe = append(probe, rng.Int63n(1<<30))
	}
	// Exact sample values and off-by-one neighbors hit the tie-breaking
	// edges of the upper-bound search.
	for i := 0; i < 512; i++ {
		v := samples[rng.Intn(len(samples))]
		probe = append(probe, v-1, v, v+1)
	}
	for _, x := range probe {
		want := int64(sort.Search(len(samples), func(i int) bool { return samples[i] > x }))
		lo, _ := s.RankBounds(x)
		if x < s.Min() || x >= s.Max() {
			continue // exact-extrema fast paths, not the search
		}
		if got := lo / s.Step(); got != want {
			t.Fatalf("RankBounds(%d): kLE %d, sort.Search %d", x, got, want)
		}
	}
}

// BenchmarkRankBounds shows the satellite delta: the open-coded
// upper-bound binary search in RankBounds vs the sort.Search closure form
// it replaced, on the same pre-built summary and probe sequence.
func BenchmarkRankBounds(b *testing.B) {
	s := rankBoundsSummary(b, 1_000_000)
	samples := s.Samples()
	probes := make([]int64, 4096)
	rng := rand.New(rand.NewSource(3))
	for i := range probes {
		probes[i] = rng.Int63n(1 << 30)
	}

	b.Run("method", func(b *testing.B) {
		b.ReportAllocs()
		var sink int64
		for i := 0; i < b.N; i++ {
			lo, hi := s.RankBounds(probes[i&4095])
			sink += lo + hi
		}
		_ = sink
	})
	b.Run("sortsearch", func(b *testing.B) {
		// The pre-optimization form, kept as the benchmark baseline.
		b.ReportAllocs()
		var sink int64
		for i := 0; i < b.N; i++ {
			x := probes[i&4095]
			sink += int64(sort.Search(len(samples), func(i int) bool { return samples[i] > x }))
		}
		_ = sink
	})
}
