package baseline

import (
	"errors"
	"math"
	"sort"
	"testing"

	"opaq/internal/datagen"
	"opaq/internal/metrics"
)

func feed(e Estimator, xs []int64) {
	for _, x := range xs {
		e.Add(x)
	}
}

func TestReservoirValidation(t *testing.T) {
	if _, err := NewReservoir(0, 1); err == nil {
		t.Fatal("k=0 should fail")
	}
	r, err := NewReservoir(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Quantile(0.5); !errors.Is(err, ErrNoData) {
		t.Fatalf("Quantile before data = %v, want ErrNoData", err)
	}
	r.Add(5)
	if _, err := r.Quantile(0); err == nil {
		t.Fatal("phi=0 should fail")
	}
	if _, err := r.Quantile(1.5); err == nil {
		t.Fatal("phi>1 should fail")
	}
}

func TestReservoirSmallStreamExact(t *testing.T) {
	// Stream smaller than the reservoir: quantiles are exact.
	r, _ := NewReservoir(100, 1)
	feed(r, []int64{9, 1, 5, 3, 7})
	got, err := r.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("median = %d, want 5", got)
	}
}

func TestReservoirAccuracyUniform(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(3, 1_000_000), 100_000)
	r, _ := NewReservoir(3000, 7)
	feed(r, xs)
	o := metrics.NewOracle(xs)
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		got, err := r.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		truth := o.Quantile(phi)
		// A 3000-point sample should land within ~2% of n in rank terms.
		rankErr := math.Abs(float64(o.RankLE(got) - o.RankLE(truth)))
		if rankErr/float64(len(xs)) > 0.02 {
			t.Errorf("phi=%g: rank error %g too large", phi, rankErr/float64(len(xs)))
		}
	}
	if r.MemoryElems() != 3000 {
		t.Errorf("MemoryElems = %d", r.MemoryElems())
	}
}

func TestAS95Validation(t *testing.T) {
	if _, err := NewAgrawalSwami(2); err == nil {
		t.Fatal("k=2 should fail")
	}
	a, err := NewAgrawalSwami(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Quantile(0.5); !errors.Is(err, ErrNoData) {
		t.Fatal("Quantile before data should fail with ErrNoData")
	}
	a.Add(1)
	if _, err := a.Quantile(-0.1); err == nil {
		t.Fatal("phi<0 should fail")
	}
}

func TestAS95Accuracy(t *testing.T) {
	for _, dist := range []string{"uniform", "zipf"} {
		xs, err := datagen.PaperDataset(dist, 100_000, 5)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewAgrawalSwami(1500) // 3000 element-equivalents
		if err != nil {
			t.Fatal(err)
		}
		feed(a, xs)
		o := metrics.NewOracle(xs)
		for _, phi := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			got, err := a.Quantile(phi)
			if err != nil {
				t.Fatal(err)
			}
			truth := o.Quantile(phi)
			rankErr := math.Abs(float64(o.RankLE(got)-o.RankLE(truth))) / float64(len(xs))
			if rankErr > 0.05 {
				t.Errorf("%s phi=%g: rank error %.4f too large (got %d, truth %d)",
					dist, phi, rankErr, got, truth)
			}
		}
	}
}

func TestAS95MonotoneQuantiles(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(11, 1<<30), 50_000)
	a, _ := NewAgrawalSwami(500)
	feed(a, xs)
	prev := int64(math.MinInt64)
	for q := 1; q <= 9; q++ {
		v, err := a.Quantile(float64(q) / 10)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Errorf("quantile %d0%% = %d < previous %d", q, v, prev)
		}
		prev = v
	}
}

// Sanity: each estimator's median of a known permutation of 1..n is close
// to n/2.
func TestAllEstimatorsMedianSanity(t *testing.T) {
	n := 10_001
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64((i*7919)%n + 1) // permutation of 1..n
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	res, _ := NewReservoir(2000, 3)
	as, _ := NewAgrawalSwami(200)
	for _, e := range []Estimator{res, as} {
		feed(e, xs)
		got, err := e.Quantile(0.5)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if math.Abs(float64(got)-float64(n)/2) > float64(n)/20 {
			t.Errorf("%s median = %d, want ≈%d", e.Name(), got, n/2)
		}
	}
}
