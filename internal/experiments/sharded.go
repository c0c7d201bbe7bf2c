package experiments

import (
	"fmt"
	"time"

	"opaq/internal/core"
	"opaq/internal/datagen"
	"opaq/internal/parallel"
	"opaq/internal/runio"
)

// ShardSweep is an extension experiment beyond the paper's evaluation: it
// measures the real (wall-clock) time of the sharded build — one
// goroutine per shard running core's sample phase, then one k-way merge
// of the shard summaries — as the shard count grows over fixed total
// data. Summaries are re-checked to be bit-identical to the single-shard
// build.
//
// Only this wall-clock throughput feeds the regression gate; the
// simulated-SP-2 experiments (Table 9–12, Figures 4–6) report modeled
// time and are deliberately not gated.
func ShardSweep(scale int) (*Table, error) {
	n := scaleN(8_000_000, scale)
	const s = 1024
	m := 1 << 16
	xs := datagen.Generate(datagen.NewUniform(seqSeed, 1<<62), n)
	cfg := core.Config{RunLen: m, SampleSize: s, Workers: 1}

	t := &Table{
		ID:     "Extension: sharded",
		Title:  fmt.Sprintf("Sharded engine wall-clock build time (n=%s in memory, m=%d, s=%d)", humanN(n), m, s),
		Header: []string{"Shards", "inproc", "speedup"},
		Notes: []string{
			"wall-clock time (no cost model); summaries are bit-identical at every shard count",
			"per-shard Workers pinned to 1 so the speedup isolates sharding itself",
		},
	}
	var base time.Duration
	var baseline *core.Summary[int64]
	counts := []int{1, 2, 4, 8}
	for _, shards := range counts {
		pieces, err := parallel.ShardSlices(xs, shards, m)
		if err != nil {
			return nil, err
		}
		datasets := make([]runio.Dataset[int64], len(pieces))
		for i, p := range pieces {
			datasets[i] = runio.NewMemoryDataset(p, 8)
		}
		start := time.Now()
		sum, err := parallel.BuildSharded(datasets, cfg)
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", shards, err)
		}
		elapsed := time.Since(start)
		if baseline == nil {
			base, baseline = elapsed, sum
		} else if err := sameSummary(baseline, sum); err != nil {
			return nil, fmt.Errorf("shards=%d: %w", shards, err)
		}
		t.AddRow(fmt.Sprintf("shards=%d", shards),
			elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", float64(base)/float64(elapsed)))
		if shards == counts[len(counts)-1] {
			t.AddMetric("sharded/inproc/elems_per_sec",
				float64(n)/elapsed.Seconds(), "elems/sec", "higher", true)
		}
	}
	return t, nil
}
