// Ablation benchmarks for the algorithm's main design choices (run them
// with go test -run '^$' -bench Ablation):
//
//   - multi-selection vs full sort in the sample phase (the paper's
//     O(m log s) vs the naive O(m log m));
//   - bitonic vs sample merge for the global merge (Figure 3's axis);
//   - the (m, s) split under a fixed memory budget r·s + m ≤ M;
//   - OPAQ + one refinement pass vs multi-pass narrowing for exact
//     quantiles.
package opaq_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"opaq"
	"opaq/internal/datagen"
	"opaq/internal/parallel"
	"opaq/internal/selection"
	"opaq/internal/simnet"
)

// BenchmarkAblationSampling compares the paper's multi-selection against
// sorting each run outright. The gap is the log(m)/log(s) factor of
// Table 2 — the reason the sample phase multi-selects.
func BenchmarkAblationSampling(b *testing.B) {
	const m, s = 1 << 17, 1 << 10
	run := datagen.Generate(datagen.NewUniform(3, 1<<62), m)
	ranks, err := selection.RegularRanks(m, s)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("multiselect", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		b.SetBytes(m * 8)
		for i := 0; i < b.N; i++ {
			cp := append([]int64(nil), run...)
			if _, err := selection.MultiSelect(cp, ranks, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fullsort", func(b *testing.B) {
		b.SetBytes(m * 8)
		for i := 0; i < b.N; i++ {
			cp := append([]int64(nil), run...)
			sort.Slice(cp, func(x, y int) bool { return cp[x] < cp[y] })
			out := make([]int64, 0, s)
			for _, r := range ranks {
				out = append(out, cp[r])
			}
			_ = out
		}
	})
}

// BenchmarkAblationGlobalMerge sweeps both global merge algorithms over
// processor counts at a fixed per-processor list size, reporting simulated
// milliseconds (the wall time of the simulation itself is incidental).
func BenchmarkAblationGlobalMerge(b *testing.B) {
	const listLen = 8192
	for _, p := range []int{2, 4, 8, 16} {
		for _, algo := range []parallel.MergeAlgo{parallel.BitonicMerge, parallel.SampleMerge} {
			b.Run(fmt.Sprintf("%v/p=%d", algo, p), func(b *testing.B) {
				var sim float64
				for i := 0; i < b.N; i++ {
					d, err := parallel.GlobalMergeTime(listLen, p, algo, simnet.DefaultCostModel(), 7)
					if err != nil {
						b.Fatal(err)
					}
					sim = float64(d.Microseconds()) / 1000
				}
				b.ReportMetric(sim, "simulated-ms")
			})
		}
	}
}

// BenchmarkAblationMemorySplit holds the memory budget M = r·s + m fixed
// and sweeps the split between run length m and sample size s. Larger s
// buys a tighter deterministic bound (reported as bound-elems) at the cost
// of more selection work per run.
func BenchmarkAblationMemorySplit(b *testing.B) {
	const n = 1 << 20
	xs := datagen.Generate(datagen.NewUniform(9, 1<<62), n)
	// Splits chosen so r·s + m stays ≈ 96k elements.
	splits := []opaq.Config{
		{RunLen: 1 << 16, SampleSize: 1 << 9},  // r=16, rs=8k,  m=64k
		{RunLen: 1 << 15, SampleSize: 1 << 10}, // r=32, rs=32k, m=32k
		{RunLen: 1 << 14, SampleSize: 1 << 11}, // r=64, rs=128k… larger rs, smaller m
	}
	for _, cfg := range splits {
		name := fmt.Sprintf("m=%d/s=%d", cfg.RunLen, cfg.SampleSize)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(n * 8)
			var bound int64
			for i := 0; i < b.N; i++ {
				sum, err := opaq.BuildFromSlice(xs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				bound = sum.ErrorBound()
			}
			b.ReportMetric(float64(bound), "bound-elems")
		})
	}
}

// BenchmarkAblationExact compares the two ways to get an exact quantile
// out of this repository: OPAQ summary + one refinement pass (2 passes
// total) vs multi-pass narrowing under the same memory budget.
func BenchmarkAblationExact(b *testing.B) {
	const n = 1 << 20
	xs := datagen.Generate(datagen.NewUniform(11, 1<<62), n)
	ds := opaq.NewMemoryDataset(xs, 8)
	const budget = 1 << 14
	b.Run("opaq-2pass", func(b *testing.B) {
		b.SetBytes(n * 8 * 2)
		for i := 0; i < b.N; i++ {
			sum, err := opaq.BuildFromSlice(xs, opaq.Config{RunLen: 1 << 16, SampleSize: 1 << 10})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := opaq.ExactQuantile(ds, sum, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multipass", func(b *testing.B) {
		var passes int
		for i := 0; i < b.N; i++ {
			var err error
			if _, passes, err = opaq.ExactQuantileMultipass(ds, 0.5, budget, 3); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(passes), "passes")
	})
}
