package datagen

import (
	"math"
	"testing"
)

func TestUniformDeterministic(t *testing.T) {
	a := Generate(NewUniform(7, 1000), 100)
	b := Generate(NewUniform(7, 1000), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical streams")
		}
	}
	c := Generate(NewUniform(8, 1000), 100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical streams")
	}
}

func TestUniformRange(t *testing.T) {
	for _, v := range Generate(NewUniform(1, 50), 1000) {
		if v < 0 || v >= 50 {
			t.Fatalf("value %d out of [0,50)", v)
		}
	}
}

func TestUniformRoughlyUniform(t *testing.T) {
	// Chi-square-style sanity check over 10 buckets.
	n := 100_000
	counts := make([]int, 10)
	for _, v := range Generate(NewUniform(3, 1000), n) {
		counts[v/100]++
	}
	want := float64(n) / 10
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d count %d deviates >10%% from %g", b, c, want)
		}
	}
}

func TestZipfParamValidation(t *testing.T) {
	if _, err := NewZipf(1, 0, 0.5); err == nil {
		t.Error("distinct=0 should fail")
	}
	if _, err := NewZipf(1, 10, -0.1); err == nil {
		t.Error("param<0 should fail")
	}
	if _, err := NewZipf(1, 10, 1.5); err == nil {
		t.Error("param>1 should fail")
	}
}

func TestZipfParamOneIsUniform(t *testing.T) {
	// With parameter 1 (θ=0) all values are equally likely.
	z, err := NewZipf(11, 100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	n := 100_000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if len(counts) != 100 {
		t.Fatalf("expected all 100 values drawn, got %d", len(counts))
	}
	want := float64(n) / 100
	for v, c := range counts {
		if math.Abs(float64(c)-want) > want*0.25 {
			t.Errorf("value %d count %d deviates >25%% from %g", v, c, want)
		}
	}
}

func TestZipfSkewIncreasesAsParamDrops(t *testing.T) {
	top := func(param float64) float64 {
		z, err := NewZipf(13, 1000, param)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[int64]int{}
		n := 50_000
		for i := 0; i < n; i++ {
			counts[z.Next()]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(n)
	}
	t1, t86, t0 := top(1.0), top(DefaultZipfParam), top(0.0)
	if !(t0 > t86 && t86 >= t1*0.8) {
		t.Errorf("skew ordering violated: top share param=0: %g, 0.86: %g, 1: %g", t0, t86, t1)
	}
}

func TestSortedAndReverse(t *testing.T) {
	s := Generate(NewSorted(2), 5)
	for i, v := range s {
		if v != int64(2*i) {
			t.Fatalf("sorted[%d] = %d", i, v)
		}
	}
	r := Generate(NewReverse(10, 1), 5)
	for i, v := range r {
		if v != int64(10-i) {
			t.Fatalf("reverse[%d] = %d", i, v)
		}
	}
}

func TestSortedStepClamped(t *testing.T) {
	g := NewSorted(0)
	a, b := g.Next(), g.Next()
	if b != a+1 {
		t.Fatalf("step 0 should clamp to 1; got %d then %d", a, b)
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewNormal(17, 5000, 100)
	n := 50_000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := float64(g.Next())
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean-5000) > 5 {
		t.Errorf("mean = %g, want ≈5000", mean)
	}
	if math.Abs(std-100) > 5 {
		t.Errorf("stddev = %g, want ≈100", std)
	}
}

func TestWithDuplicatesFraction(t *testing.T) {
	inner := NewUniform(23, 1<<62) // collisions essentially impossible
	w, err := NewWithDuplicates(29, inner, DuplicateFraction)
	if err != nil {
		t.Fatal(err)
	}
	n := 200_000
	seen := make(map[int64]int, n)
	dups := 0
	for i := 0; i < n; i++ {
		v := w.Next()
		if seen[v] > 0 {
			dups++
		}
		seen[v]++
	}
	frac := float64(dups) / float64(n)
	if math.Abs(frac-DuplicateFraction) > 0.02 {
		t.Errorf("duplicate fraction = %g, want ≈%g", frac, DuplicateFraction)
	}
}

func TestWithDuplicatesValidation(t *testing.T) {
	if _, err := NewWithDuplicates(1, NewSorted(1), 1.0); err == nil {
		t.Error("fraction 1.0 should fail")
	}
	if _, err := NewWithDuplicates(1, NewSorted(1), -0.1); err == nil {
		t.Error("negative fraction should fail")
	}
}

func TestPaperDataset(t *testing.T) {
	for _, dist := range []string{"uniform", "zipf"} {
		xs, err := PaperDataset(dist, 10_000, 31)
		if err != nil {
			t.Fatal(err)
		}
		if len(xs) != 10_000 {
			t.Fatalf("%s: len = %d", dist, len(xs))
		}
		// Determinism.
		ys, err := PaperDataset(dist, 10_000, 31)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if xs[i] != ys[i] {
				t.Fatalf("%s: dataset not deterministic", dist)
			}
		}
	}
	if _, err := PaperDataset("pareto", 10, 1); err == nil {
		t.Error("unknown distribution should fail")
	}
}

func TestGeneratorNames(t *testing.T) {
	z, _ := NewZipf(1, 10, 0.5)
	w, _ := NewWithDuplicates(1, NewUniform(1, 10), 0.1)
	names := map[string]string{
		NewUniform(1, 10).Name():  "uniform",
		z.Name():                  "zipf",
		NewSorted(1).Name():       "sorted",
		NewReverse(1, 1).Name():   "reverse",
		NewNormal(1, 0, 1).Name(): "normal",
		w.Name():                  "uniform+dups",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestSelfSimilarValidation(t *testing.T) {
	if _, err := NewSelfSimilar(1, 100, 0.4); err == nil {
		t.Error("h<0.5 should fail")
	}
	if _, err := NewSelfSimilar(1, 100, 1.0); err == nil {
		t.Error("h=1 should fail")
	}
	if _, err := NewSelfSimilar(1, 0, 0.8); err == nil {
		t.Error("max=0 should fail")
	}
}

func TestSelfSimilarEightyTwenty(t *testing.T) {
	s, err := NewSelfSimilar(7, 1_000_000, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	n := 100_000
	inFirstFifth := 0
	for i := 0; i < n; i++ {
		v := s.Next()
		if v < 0 || v >= 1_000_000 {
			t.Fatalf("value %d out of range", v)
		}
		if v < 200_000 {
			inFirstFifth++
		}
	}
	frac := float64(inFirstFifth) / float64(n)
	if math.Abs(frac-0.8) > 0.03 {
		t.Errorf("mass in first 20%% of range = %g, want ≈0.8", frac)
	}
	if s.Name() != "selfsimilar" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestSelfSimilarHalfIsUniform(t *testing.T) {
	s, err := NewSelfSimilar(9, 1000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 10)
	n := 100_000
	for i := 0; i < n; i++ {
		counts[s.Next()/100]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-float64(n)/10) > float64(n)/10*0.15 {
			t.Errorf("h=0.5 bucket %d count %d deviates from uniform", b, c)
		}
	}
}
