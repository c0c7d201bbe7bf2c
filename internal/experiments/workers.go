package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"opaq/internal/core"
	"opaq/internal/datagen"
	"opaq/internal/runio"
)

// WorkerSweep is an extension experiment beyond the paper's evaluation: it
// measures the real (wall-clock) build time of the concurrent sample phase
// over a disk-resident run file as the worker count grows. This is the
// practical counterpart of the paper's Section 4 future work — the
// simulated "overlap" experiment predicts the gain; this one measures it on
// actual hardware, where runs are prefetched from disk while the workers
// sample them.
func WorkerSweep(scale int) (*Table, error) {
	n := int64(scaleN(8_000_000, scale))
	cfg := core.Config{RunLen: 1 << 16, SampleSize: 1 << 10}

	dir, err := os.MkdirTemp("", "opaq-workers")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "data.run")
	gen := datagen.NewUniform(seqSeed, 1<<62)
	if err := runio.WriteFileFunc(path, runio.Int64Codec{}, n, func(int64) int64 { return gen.Next() }); err != nil {
		return nil, err
	}

	// Even on one core two workers can win: the prefetcher's disk waits
	// overlap the workers' sampling. Sweep 1, 2, 4, … up to GOMAXPROCS
	// (always including 2 so prefetching is exercised).
	maxW := runtime.GOMAXPROCS(0)
	workerCounts := []int{1, 2}
	for w := 4; w < maxW; w *= 2 {
		workerCounts = append(workerCounts, w)
	}
	if maxW > 2 {
		workerCounts = append(workerCounts, maxW)
	}

	t := &Table{
		ID:     "Extension: workers",
		Title:  fmt.Sprintf("Concurrent build wall-clock time (n=%s on disk, m=%d, s=%d)", humanN(int(n)), cfg.RunLen, cfg.SampleSize),
		Header: []string{"Workers", "build time", "speedup"},
		Notes: []string{
			"paper §4 (future work): overlapping I/O and computation; summaries are bit-identical at every worker count",
		},
	}
	var base time.Duration
	var baseline *core.Summary[int64]
	for _, w := range workerCounts {
		ds, err := runio.OpenFile(path, runio.Int64Codec{})
		if err != nil {
			return nil, err
		}
		c := cfg
		c.Workers = w
		start := time.Now()
		sum, err := core.BuildFromDataset[int64](ds, c)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if baseline == nil {
			base, baseline = elapsed, sum
		} else if err := sameSummary(baseline, sum); err != nil {
			return nil, fmt.Errorf("workers=%d: %w", w, err)
		}
		t.AddRow(fmt.Sprintf("w=%d", w),
			elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", float64(base)/float64(elapsed)))
	}
	return t, nil
}

// sameSummary checks the bit-identical determinism guarantee across worker
// counts.
func sameSummary(a, b *core.Summary[int64]) error {
	pa, pb := a.Parts(), b.Parts()
	if pa.N != pb.N || pa.Runs != pb.Runs || pa.Step != pb.Step ||
		pa.Leftover != pb.Leftover || pa.Min != pb.Min || pa.Max != pb.Max ||
		len(pa.Samples) != len(pb.Samples) {
		return fmt.Errorf("summary metadata diverged: %+v vs %+v", pa, pb)
	}
	for i := range pa.Samples {
		if pa.Samples[i] != pb.Samples[i] {
			return fmt.Errorf("sample %d diverged: %d vs %d", i, pa.Samples[i], pb.Samples[i])
		}
	}
	return nil
}
