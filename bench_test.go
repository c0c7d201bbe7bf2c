// Benchmarks regenerating every table and figure of the paper's evaluation
// (one testing.B benchmark per experiment; `go run ./cmd/benchtab -list`
// prints the index)
// plus micro-benchmarks of the core one-pass machinery.
//
// Experiment benchmarks run at 1/benchScale of the paper's dataset sizes
// so `go test -bench=.` finishes in minutes; `go run ./cmd/benchtab -scale 1`
// reruns everything at paper scale. The reported tables are printed once
// per benchmark (they are the artifact; the ns/op is incidental).
package opaq_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"opaq"
	"opaq/internal/datagen"
	"opaq/internal/experiments"
)

// benchScale divides paper dataset sizes inside the experiment benchmarks.
const benchScale = 20

// benchVerbose prints the regenerated tables when set (OPAQ_BENCH_PRINT=1).
var benchVerbose = os.Getenv("OPAQ_BENCH_PRINT") != ""

func runExperiment(b *testing.B, name string) {
	b.Helper()
	fn := experiments.All()[name]
	if fn == nil {
		b.Fatalf("unknown experiment %q", name)
	}
	for i := 0; i < b.N; i++ {
		tbl, err := fn(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if benchVerbose && i == 0 {
			tbl.Format(os.Stdout)
		} else {
			tbl.Format(io.Discard)
		}
	}
}

func BenchmarkTable3(b *testing.B)  { runExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)  { runExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)  { runExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)  { runExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)  { runExperiment(b, "table7") }
func BenchmarkFigure3(b *testing.B) { runExperiment(b, "figure3") }
func BenchmarkTable9(b *testing.B)  { runExperiment(b, "table9") }
func BenchmarkTable10(b *testing.B) { runExperiment(b, "table10") }
func BenchmarkTable11(b *testing.B) { runExperiment(b, "table11") }
func BenchmarkTable12(b *testing.B) { runExperiment(b, "table12") }
func BenchmarkFigure4(b *testing.B) { runExperiment(b, "figure4") }
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "figure5") }
func BenchmarkFigure6(b *testing.B) { runExperiment(b, "figure6") }

// ---- Micro-benchmarks of the public API ----

// BenchmarkBuildSummary measures one-pass summary construction throughput
// (elements/op is the figure of merit: the paper's Table 2 promises
// O(n log s) total work).
func BenchmarkBuildSummary(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		for _, s := range []int{256, 1024} {
			b.Run(fmt.Sprintf("n=%d/s=%d", n, s), func(b *testing.B) {
				xs := datagen.Generate(datagen.NewUniform(1, 1<<62), n)
				cfg := opaq.Config{RunLen: n / 8 / s * s, SampleSize: s} // ~8 runs, s | m
				b.SetBytes(int64(n) * 8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := opaq.BuildFromSlice(xs, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBuildWorkers sweeps Config.Workers over a disk-resident run
// file, making the speedup of the concurrent sample phase (and its
// bit-identical output) visible in the perf trajectory. Workers=1 drains
// the scan on one goroutine; higher counts prefetch runs and sample them
// on that many goroutines at once.
func BenchmarkBuildWorkers(b *testing.B) {
	const n = 2_000_000
	path := filepath.Join(b.TempDir(), "bench.run")
	gen := datagen.NewUniform(1, 1<<62)
	if err := opaq.WriteInt64FileFunc(path, n, func(int64) int64 { return gen.Next() }); err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		counts = append(counts, g)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := opaq.Config{RunLen: 1 << 16, SampleSize: 1 << 10, Workers: w}
			b.SetBytes(n * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds, err := opaq.OpenInt64File(path)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := opaq.BuildFromDataset(ds, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuantileQuery measures the O(1)-per-quantile claim: answering a
// quantile from an existing summary.
func BenchmarkQuantileQuery(b *testing.B) {
	xs := datagen.Generate(datagen.NewUniform(1, 1<<62), 1_000_000)
	sum, err := opaq.BuildFromSlice(xs, opaq.Config{RunLen: 125_000, SampleSize: 1000})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi := float64(i%999+1) / 1000
		if _, err := sum.Bounds(phi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeSummaries measures incremental maintenance cost.
func BenchmarkMergeSummaries(b *testing.B) {
	xs := datagen.Generate(datagen.NewUniform(1, 1<<62), 200_000)
	cfg := opaq.Config{RunLen: 10_000, SampleSize: 1000}
	s1, err := opaq.BuildFromSlice(xs[:100_000], cfg)
	if err != nil {
		b.Fatal(err)
	}
	s2, err := opaq.BuildFromSlice(xs[100_000:], cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opaq.Merge(s1, s2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankBounds measures arbitrary-key rank estimation.
func BenchmarkRankBounds(b *testing.B) {
	xs := datagen.Generate(datagen.NewUniform(1, 1<<62), 1_000_000)
	sum, err := opaq.BuildFromSlice(xs, opaq.Config{RunLen: 125_000, SampleSize: 1000})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum.RankBounds(int64(i) * 7919)
	}
}

// BenchmarkBuildSharded measures the sharded build (one goroutine per
// shard, then one k-way merge of the shard summaries) over fixed total
// data as the shard count grows; per-shard Workers is pinned to 1 so the
// subject is sharding itself.
func BenchmarkBuildSharded(b *testing.B) {
	const n, runLen = 2_000_000, 1 << 16
	gen := datagen.NewUniform(3, 1<<62)
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = gen.Next()
	}
	cfg := opaq.Config{RunLen: runLen, SampleSize: 1 << 10, Workers: 1}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			pieces, err := opaq.ShardSlices(xs, shards, runLen)
			if err != nil {
				b.Fatal(err)
			}
			datasets := make([]opaq.Dataset[int64], len(pieces))
			for i, p := range pieces {
				datasets[i] = opaq.NewMemoryDataset(p, 8)
			}
			b.SetBytes(n * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opaq.BuildSharded(datasets, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
