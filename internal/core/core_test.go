package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"opaq/internal/datagen"
	"opaq/internal/runio"
)

// trueQuantile returns the element of 1-based rank ⌈phi·n⌉ of sorted xs.
func trueQuantile(sorted []int64, phi float64) int64 {
	n := len(sorted)
	rank := int(phi * float64(n))
	if float64(rank) < phi*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// countBetween counts elements of sorted xs strictly inside (a, b).
func countBetween(sorted []int64, a, b int64) int64 {
	lo := sort.Search(len(sorted), func(i int) bool { return sorted[i] > a })
	hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= b })
	if hi < lo {
		return 0
	}
	return int64(hi - lo)
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{RunLen: 100, SampleSize: 10}, true},
		{Config{RunLen: 100, SampleSize: 100}, true},
		{Config{RunLen: 0, SampleSize: 10}, false},
		{Config{RunLen: 100, SampleSize: 0}, false},
		{Config{RunLen: 100, SampleSize: 7}, false},  // 7 ∤ 100
		{Config{RunLen: 10, SampleSize: 100}, false}, // s > m
		{Config{RunLen: -5, SampleSize: -1}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
		}
		if err != nil && !errors.Is(err, ErrConfig) {
			t.Errorf("Validate error %v should wrap ErrConfig", err)
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	s, err := BuildFromSlice[int64](nil, Config{RunLen: 8, SampleSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 0 {
		t.Fatalf("N = %d", s.N())
	}
	if _, err := s.Bounds(0.5); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Bounds on empty = %v, want ErrEmpty", err)
	}
	if _, err := s.Quantiles(10); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Quantiles on empty = %v, want ErrEmpty", err)
	}
}

func TestBoundsPhiValidation(t *testing.T) {
	s, err := BuildFromSlice([]int64{1, 2, 3, 4}, Config{RunLen: 4, SampleSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{0, -0.5, 1.01, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := s.Bounds(phi); !errors.Is(err, ErrPhi) {
			t.Errorf("Bounds(%g) = %v, want ErrPhi", phi, err)
		}
	}
	if _, err := s.Bounds(1); err != nil {
		t.Errorf("Bounds(1) should be the maximum, got error %v", err)
	}
}

func TestContainmentTinyExact(t *testing.T) {
	// 16 known values, m=8, s=4 → step 2, r=2.
	xs := []int64{15, 3, 9, 1, 12, 7, 5, 11, 2, 14, 6, 10, 4, 8, 16, 13}
	cfg := Config{RunLen: 8, SampleSize: 4}
	s, err := BuildFromSlice(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, phi := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		b, err := s.Bounds(phi)
		if err != nil {
			t.Fatal(err)
		}
		e := trueQuantile(sorted, phi)
		if b.Lower > e || e > b.Upper {
			t.Errorf("phi=%g: true %d outside [%d, %d]", phi, e, b.Lower, b.Upper)
		}
	}
}

func TestLemmasOnPaperWorkloads(t *testing.T) {
	// Full-scale shape of the paper's accuracy claims at test size:
	// n=100k, m=10k, s in {100, 1000}.
	for _, dist := range []string{"uniform", "zipf"} {
		for _, s := range []int{100, 1000} {
			xs, err := datagen.PaperDataset(dist, 100_000, 7)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{RunLen: 10_000, SampleSize: s}
			sum, err := BuildFromSlice(xs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sorted := append([]int64(nil), xs...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			n := int64(len(xs))
			lemmaBound := sum.ErrorBound() // ≈ n/s
			if lim := n / int64(s) * 2; lemmaBound > lim {
				t.Fatalf("%s s=%d: ErrorBound %d implausibly large (> 2n/s = %d)", dist, s, lemmaBound, lim)
			}
			for q := 1; q <= 9; q++ {
				phi := float64(q) / 10
				b, err := sum.Bounds(phi)
				if err != nil {
					t.Fatal(err)
				}
				e := trueQuantile(sorted, phi)
				if b.Lower > e || e > b.Upper {
					t.Fatalf("%s s=%d phi=%g: true %d outside [%d, %d]", dist, s, phi, e, b.Lower, b.Upper)
				}
				// Lemma 1: elements strictly between lower bound and truth.
				if got := countBetween(sorted, b.Lower, e); got > lemmaBound {
					t.Errorf("%s s=%d phi=%g: %d elements below gap > bound %d", dist, s, phi, got, lemmaBound)
				}
				// Lemma 2.
				if got := countBetween(sorted, e, b.Upper); got > lemmaBound {
					t.Errorf("%s s=%d phi=%g: %d elements above gap > bound %d", dist, s, phi, got, lemmaBound)
				}
				// Lemma 3.
				if got := countBetween(sorted, b.Lower, b.Upper); got > 2*lemmaBound {
					t.Errorf("%s s=%d phi=%g: enclosure holds %d > 2×bound %d", dist, s, phi, got, 2*lemmaBound)
				}
				// Reported per-quantile accounting must also hold.
				if got := countBetween(sorted, b.Lower, e); got > b.MaxBelow {
					t.Errorf("%s s=%d phi=%g: MaxBelow=%d but %d observed", dist, s, phi, b.MaxBelow, got)
				}
				if got := countBetween(sorted, e, b.Upper); got > b.MaxAbove {
					t.Errorf("%s s=%d phi=%g: MaxAbove=%d but %d observed", dist, s, phi, b.MaxAbove, got)
				}
			}
		}
	}
}

// Property: containment and Lemma 3 hold for arbitrary data and any valid
// configuration, including ragged final runs.
func TestQuickLemmas(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, rawN uint16, stepPow, sPow uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(rawN)%3000
		s := 1 << (sPow % 5)       // 1..16
		step := 1 << (stepPow % 4) // 1..8
		m := s * step
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = r.Int63n(500) // duplicates likely
		}
		sum, err := BuildFromSlice(xs, Config{RunLen: m, SampleSize: s})
		if err != nil {
			return false
		}
		sorted := append([]int64(nil), xs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		bound := sum.ErrorBound()
		for _, phi := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 1} {
			b, err := sum.Bounds(phi)
			if err != nil {
				return false
			}
			e := trueQuantile(sorted, phi)
			if b.Lower > e || e > b.Upper {
				return false
			}
			if countBetween(sorted, b.Lower, e) > bound {
				return false
			}
			if countBetween(sorted, e, b.Upper) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxTracked(t *testing.T) {
	xs := []int64{5, -100, 3, 999, 7, 7, 7, 1}
	s, err := BuildFromSlice(xs, Config{RunLen: 4, SampleSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min() != -100 || s.Max() != 999 {
		t.Fatalf("Min/Max = %d/%d", s.Min(), s.Max())
	}
	// phi=1 must return max exactly.
	b, err := s.Bounds(1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Upper != 999 {
		t.Fatalf("Bounds(1).Upper = %d, want 999", b.Upper)
	}
}

func TestQuantilesDectiles(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(3, 1_000_000), 50_000)
	s, err := BuildFromSlice(xs, Config{RunLen: 5000, SampleSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := s.Quantiles(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 9 {
		t.Fatalf("Quantiles(10) returned %d bounds", len(bs))
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, b := range bs {
		e := trueQuantile(sorted, float64(i+1)/10)
		if b.Lower > e || e > b.Upper {
			t.Errorf("dectile %d0%%: true %d outside [%d, %d]", i+1, e, b.Lower, b.Upper)
		}
	}
	// Monotone: successive lower bounds and upper bounds must not decrease.
	for i := 1; i < len(bs); i++ {
		if bs[i].Lower < bs[i-1].Lower || bs[i].Upper < bs[i-1].Upper {
			t.Errorf("bounds not monotone at dectile %d", i+1)
		}
	}
	if _, err := s.Quantiles(1); !errors.Is(err, ErrPhi) {
		t.Error("Quantiles(1) should fail")
	}
}

func TestRankBounds(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(9, 100_000), 20_000)
	s, err := BuildFromSlice(xs, Config{RunLen: 2000, SampleSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rankLE := func(x int64) int64 {
		return int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > x }))
	}
	probes := []int64{-1, 0, 50_000, 99_999, 1 << 40, sorted[0], sorted[len(sorted)-1], sorted[777]}
	for _, x := range probes {
		lo, hi := s.RankBounds(x)
		truth := rankLE(x)
		if truth < lo || truth > hi {
			t.Errorf("RankBounds(%d) = [%d,%d], true rank %d outside", x, lo, hi, truth)
		}
	}
	// Width of the rank enclosure is bounded by r·step + leftovers.
	lo, hi := s.RankBounds(50_000)
	if width := hi - lo; width > s.Runs()*s.Step() {
		t.Errorf("rank enclosure width %d exceeds r·step = %d", width, s.Runs()*s.Step())
	}
}

func TestMergeEquivalence(t *testing.T) {
	// Summary(A ∪ B) must equal Merge(Summary(A), Summary(B)) when both
	// halves are run-aligned: identical samples and bounds.
	cfg := Config{RunLen: 1000, SampleSize: 100}
	xs := datagen.Generate(datagen.NewUniform(11, 1_000_000), 10_000)
	whole, err := BuildFromSlice(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildFromSlice(xs[:6000], cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildFromSlice(xs[6000:], cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != whole.N() || m.Runs() != whole.Runs() || m.SampleCount() != whole.SampleCount() {
		t.Fatalf("merged N/runs/samples = %d/%d/%d, whole = %d/%d/%d",
			m.N(), m.Runs(), m.SampleCount(), whole.N(), whole.Runs(), whole.SampleCount())
	}
	for i, v := range m.Samples() {
		if v != whole.Samples()[i] {
			t.Fatalf("sample %d differs: %d vs %d", i, v, whole.Samples()[i])
		}
	}
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		bm, _ := m.Bounds(phi)
		bw, _ := whole.Bounds(phi)
		if bm.Lower != bw.Lower || bm.Upper != bw.Upper {
			t.Errorf("phi=%g: merged bounds [%d,%d] != whole [%d,%d]",
				phi, bm.Lower, bm.Upper, bw.Lower, bw.Upper)
		}
	}
}

func TestMergeIncompatibleStep(t *testing.T) {
	a, _ := BuildFromSlice([]int64{1, 2, 3, 4}, Config{RunLen: 4, SampleSize: 2})
	b, _ := BuildFromSlice([]int64{5, 6, 7, 8}, Config{RunLen: 4, SampleSize: 4})
	if _, err := Merge(a, b); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("Merge with different steps = %v, want ErrIncompatible", err)
	}
}

func TestMergeWithEmpty(t *testing.T) {
	a, _ := BuildFromSlice([]int64{1, 2, 3, 4}, Config{RunLen: 4, SampleSize: 2})
	e, _ := BuildFromSlice[int64](nil, Config{RunLen: 4, SampleSize: 2})
	m, err := Merge(a, e)
	if err != nil || m.N() != 4 {
		t.Fatalf("Merge(a, empty) = %v, %v", m, err)
	}
	m2, err := Merge(e, a)
	if err != nil || m2.N() != 4 {
		t.Fatalf("Merge(empty, a) = %v, %v", m2, err)
	}
}

// Property: incremental merge over a random split preserves containment.
func TestQuickMergeContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64, cut uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2000
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = r.Int63n(10_000)
		}
		c := int(cut) % n
		cfg := Config{RunLen: 100, SampleSize: 10}
		a, err := BuildFromSlice(xs[:c], cfg)
		if err != nil {
			return false
		}
		b, err := BuildFromSlice(xs[c:], cfg)
		if err != nil {
			return false
		}
		m, err := Merge(a, b)
		if err != nil {
			return false
		}
		sorted := append([]int64(nil), xs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, phi := range []float64{0.25, 0.5, 0.75} {
			bb, err := m.Bounds(phi)
			if err != nil {
				return false
			}
			e := trueQuantile(sorted, phi)
			if bb.Lower > e || e > bb.Upper {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestExactQuantile(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(13, 1_000_000), 30_000)
	ds := runio.NewMemoryDataset(xs, 8)
	cfg := Config{RunLen: 3000, SampleSize: 300}
	s, err := BuildFromDataset[int64](ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, phi := range []float64{0.1, 0.5, 0.9, 1.0} {
		got, err := ExactQuantile[int64](ds, s, phi)
		if err != nil {
			t.Fatal(err)
		}
		if want := trueQuantile(sorted, phi); got != want {
			t.Errorf("ExactQuantile(%g) = %d, want %d", phi, got, want)
		}
	}
}

func TestExactQuantileWithHeavyDuplicates(t *testing.T) {
	xs := make([]int64, 10_000)
	rng := rand.New(rand.NewSource(4))
	for i := range xs {
		xs[i] = rng.Int63n(5) // only 5 distinct values
	}
	ds := runio.NewMemoryDataset(xs, 8)
	s, err := BuildFromDataset[int64](ds, Config{RunLen: 1000, SampleSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, phi := range []float64{0.2, 0.5, 0.8} {
		got, err := ExactQuantile[int64](ds, s, phi)
		if err != nil {
			t.Fatal(err)
		}
		if want := trueQuantile(sorted, phi); got != want {
			t.Errorf("phi=%g: got %d, want %d", phi, got, want)
		}
	}
}

// TestExactQuantileAllocatesWindowOnce pins what an exact pass allocates:
// its window, made once at twice the summary's ErrorBound, which Lemma 3
// says distinct keys never overfill, and about 6 KiB besides: the RNG and
// the reader. A window that starts small and grows by appends allocates
// twice its final size or more, and an allocation of one slice header per
// run given back to the pool would add 24 KiB over the pass's 1,024 runs.
// The runs come from the run pool, warm after the first pass. The bound
// is skipped under the race detector, under which sync.Pool drops a
// random share of Puts.
func TestExactQuantileAllocatesWindowOnce(t *testing.T) {
	cfg := Config{RunLen: 1 << 14, SampleSize: 256}
	xs := datagen.Generate(datagen.NewUniform(41, 1<<40), 64*cfg.RunLen)
	ds := runio.NewMemoryDataset(xs, 8)
	s, err := BuildFromDataset[int64](ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := 8 * uint64(2*s.ErrorBound())
	const slack = 16 << 10
	for _, phi := range []float64{0.01, 0.5, 0.99} {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := ExactQuantile[int64](ds, s, phi); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("phi=%g: one pass allocated %.1f KiB, window of 2·ErrorBound %.1f KiB", phi, float64(least)/1024, float64(window)/1024)
		if least > window+slack && !raceEnabled {
			t.Errorf("phi=%g: one pass allocated %d KiB, want at most %d KiB (a window of 2·ErrorBound = %d keys and %d KiB)",
				phi, least>>10, (window+slack)>>10, 2*s.ErrorBound(), slack>>10)
		}
	}
}

func TestPlanConfig(t *testing.T) {
	p, err := PlanConfig(10_000_000, 100_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Config.Validate(); err != nil {
		t.Fatalf("planned config invalid: %v", err)
	}
	if p.Config.SampleSize < 20 {
		t.Errorf("SampleSize %d < 2q", p.Config.SampleSize)
	}
	if p.MemoryElems > 100_000 {
		t.Errorf("plan exceeds memory budget: %d", p.MemoryElems)
	}
	// The planned config must actually work.
	xs := datagen.Generate(datagen.NewUniform(5, 1<<40), 100_000)
	cfgSmall, err := PlanConfig(int64(len(xs)), 20_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildFromSlice(xs, cfgSmall.Config)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != int64(len(xs)) {
		t.Fatalf("N = %d", s.N())
	}
}

func TestPlanConfigInfeasible(t *testing.T) {
	if _, err := PlanConfig(1_000_000_000, 100, 10); !errors.Is(err, ErrConfig) {
		t.Fatalf("tiny memory budget should fail with ErrConfig, got %v", err)
	}
	if _, err := PlanConfig(0, 100, 10); !errors.Is(err, ErrConfig) {
		t.Fatal("n=0 should fail")
	}
	if _, err := PlanConfig(100, 100, 0); !errors.Is(err, ErrConfig) {
		t.Fatal("q=0 should fail")
	}
}

func TestBuildRejectsMismatchedReader(t *testing.T) {
	ds := runio.NewMemoryDataset([]int64{1, 2, 3, 4}, 8)
	rr, err := ds.Runs(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(rr, Config{RunLen: 4, SampleSize: 2}); !errors.Is(err, ErrConfig) {
		t.Fatalf("Build with mismatched run length = %v, want ErrConfig", err)
	}
}

func TestBoundsAtRankEdges(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(21, 1000), 1000)
	s, err := BuildFromSlice(xs, Config{RunLen: 100, SampleSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, rank := range []int64{1, 2, 500, 999, 1000} {
		b, err := s.BoundsAtRank(rank)
		if err != nil {
			t.Fatal(err)
		}
		e := sorted[rank-1]
		if b.Lower > e || e > b.Upper {
			t.Errorf("rank %d: true %d outside [%d,%d]", rank, e, b.Lower, b.Upper)
		}
	}
	if _, err := s.BoundsAtRank(0); !errors.Is(err, ErrPhi) {
		t.Error("rank 0 should fail")
	}
	if _, err := s.BoundsAtRank(1001); !errors.Is(err, ErrPhi) {
		t.Error("rank n+1 should fail")
	}
}

func TestAdversarialDistributions(t *testing.T) {
	cfg := Config{RunLen: 500, SampleSize: 50}
	gens := map[string][]int64{
		"sorted":   datagen.Generate(datagen.NewSorted(1), 10_000),
		"reverse":  datagen.Generate(datagen.NewReverse(10_000, 1), 10_000),
		"constant": make([]int64, 10_000),
		"normal":   datagen.Generate(datagen.NewNormal(1, 0, 1e6), 10_000),
	}
	for name, xs := range gens {
		s, err := BuildFromSlice(xs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sorted := append([]int64(nil), xs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		bound := s.ErrorBound()
		for _, phi := range []float64{0.1, 0.5, 0.9} {
			b, err := s.Bounds(phi)
			if err != nil {
				t.Fatal(err)
			}
			e := trueQuantile(sorted, phi)
			if b.Lower > e || e > b.Upper {
				t.Errorf("%s phi=%g: true %d outside [%d,%d]", name, phi, e, b.Lower, b.Upper)
			}
			if got := countBetween(sorted, b.Lower, b.Upper); got > 2*bound {
				t.Errorf("%s phi=%g: enclosure %d > 2×bound %d", name, phi, got, 2*bound)
			}
		}
	}
}

func TestCDF(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(17, 1000), 10_000)
	s, err := BuildFromSlice(xs, Config{RunLen: 1000, SampleSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, x := range []int64{-1, 0, 250, 500, 750, 999, 2000} {
		lo, hi := s.CDF(x)
		truth := float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > x })) / float64(len(sorted))
		if truth < lo-1e-12 || truth > hi+1e-12 {
			t.Errorf("CDF(%d): truth %g outside [%g, %g]", x, truth, lo, hi)
		}
		if lo < 0 || hi > 1 || lo > hi {
			t.Errorf("CDF(%d) = [%g, %g] malformed", x, lo, hi)
		}
	}
	empty, _ := BuildFromSlice[int64](nil, Config{RunLen: 4, SampleSize: 2})
	if lo, hi := empty.CDF(5); lo != 0 || hi != 0 {
		t.Errorf("empty CDF = [%g, %g]", lo, hi)
	}
}

func TestBoundsIndependentOfSeed(t *testing.T) {
	// The sample values are exact order statistics, drawn from no shared
	// RNG state, so repeated builds over the same data must give identical
	// samples and hence bounds.
	xs := datagen.Generate(datagen.NewUniform(3, 1<<40), 20_000)
	var ref *Summary[int64]
	for build := range 5 {
		s, err := BuildFromSlice(xs, Config{RunLen: 2000, SampleSize: 200})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = s
			continue
		}
		for i, v := range s.Samples() {
			if v != ref.Samples()[i] {
				t.Fatalf("build %d: sample %d differs (%d vs %d)", build, i, v, ref.Samples()[i])
			}
		}
	}
}

func TestFloat64EndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 1e6
	}
	ds := runio.NewMemoryDataset(xs, 8)
	s, err := BuildFromDataset[float64](ds, Config{RunLen: 1000, SampleSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, phi := range []float64{0.05, 0.5, 0.95} {
		b, err := s.Bounds(phi)
		if err != nil {
			t.Fatal(err)
		}
		rank := int(phi * float64(len(sorted)))
		if float64(rank) < phi*float64(len(sorted)) {
			rank++
		}
		truth := sorted[rank-1]
		if b.Lower > truth || truth > b.Upper {
			t.Errorf("phi=%g: %g outside [%g,%g]", phi, truth, b.Lower, b.Upper)
		}
	}
	// Exact second pass on float64.
	med, err := ExactQuantile[float64](ds, s, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := sorted[(len(sorted)+1)/2-1]; med != want {
		t.Errorf("exact float median = %g, want %g", med, want)
	}
}
