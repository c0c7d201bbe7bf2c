package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"opaq/internal/datagen"
	"opaq/internal/runio"
)

// workerMatrix is the worker-count sweep every determinism test runs:
// one worker, two, an odd count, and whatever the host offers.
func workerMatrix() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// buildWith builds a summary of xs at the given worker count over a
// file-like scan (MemoryDataset hands out fresh run slices, as the disk
// reader does).
func buildWith(t *testing.T, xs []int64, cfg Config, workers int) *Summary[int64] {
	t.Helper()
	cfg.Workers = workers
	sum, err := BuildFromSlice(xs, cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return sum
}

// TestBuildDeterministicAcrossWorkers asserts the tentpole guarantee: the
// summary is bit-identical for every worker count, on every distribution
// the paper evaluates, including ragged inputs (n not divisible by RunLen).
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	zipf, err := datagen.NewZipf(11, 5000, 0.86)
	if err != nil {
		t.Fatal(err)
	}
	selfSim, err := datagen.NewSelfSimilar(12, 1<<40, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	datasets := map[string][]int64{
		"uniform":     datagen.Generate(datagen.NewUniform(10, 1<<40), 60_000),
		"zipf":        datagen.Generate(zipf, 60_000),
		"selfsimilar": datagen.Generate(selfSim, 60_000),
		"ragged":      datagen.Generate(datagen.NewUniform(13, 1<<30), 60_000-4_321),
	}
	cfg := Config{RunLen: 4096, SampleSize: 256}
	for name, xs := range datasets {
		t.Run(name, func(t *testing.T) {
			want := buildWith(t, xs, cfg, 1)
			for _, w := range workerMatrix()[1:] {
				if d := summaryDiff(want, buildWith(t, xs, cfg, w)); d != "" {
					t.Errorf("workers=%d: summary diverged from sequential build: %s", w, d)
				}
			}
		})
	}
}

// TestStreamBuilderMatchesConcurrentBuild pins the cross-path guarantee:
// push-based streaming and Build at every worker count produce the same
// bits.
func TestStreamBuilderMatchesConcurrentBuild(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(7, 1<<30), 25_000) // ragged tail
	cfg := Config{RunLen: 2048, SampleSize: 128}
	sb, err := NewStreamBuilder[int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	streamed, err := sb.Summary()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerMatrix() {
		built := buildWith(t, xs, cfg, w)
		if d := summaryDiff(streamed, built); d != "" {
			t.Errorf("workers=%d: stream and build summaries diverged: %s", w, d)
		}
	}
}

// TestBuildFromFileMatchesSlice builds over a run file, whose reader fills
// each run straight from the file for the built-in codecs, and over the
// same keys in memory: at Workers 1, 2 and 7 the two summaries must save
// to the same bytes. The keys end in a ragged run.
func TestBuildFromFileMatchesSlice(t *testing.T) {
	cfg := Config{RunLen: 2048, SampleSize: 128}
	xs := datagen.Generate(datagen.NewUniform(21, 1<<40), 30_000)
	fs := make([]float64, len(xs))
	f32 := make([]float32, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)/3 - 1e11 - 0.5
		f32[i] = float32(fs[i])
	}
	t.Run("int64", func(t *testing.T) { checkFileMatchesSlice(t, xs, runio.Int64Codec{}, cfg) })
	t.Run("float64", func(t *testing.T) { checkFileMatchesSlice(t, fs, runio.Float64Codec{}, cfg) })
	t.Run("float32", func(t *testing.T) { checkFileMatchesSlice(t, f32, runio.Float32Codec{}, cfg) })
}

func checkFileMatchesSlice[T cmp.Ordered](t *testing.T, xs []T, codec runio.Codec[T], cfg Config) {
	path := filepath.Join(t.TempDir(), "keys.run")
	if err := runio.WriteFile(path, codec, xs); err != nil {
		t.Fatal(err)
	}
	ds, err := runio.OpenFile(path, codec)
	if err != nil {
		t.Fatal(err)
	}
	save := func(s *Summary[T], err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatalf("workers=%d: %v", cfg.Workers, err)
		}
		var buf bytes.Buffer
		if err := SaveSummary(&buf, s, codec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, w := range []int{1, 2, 7} {
		cfg.Workers = w
		if !bytes.Equal(save(BuildFromDataset[T](ds, cfg)), save(BuildFromSlice(xs, cfg))) {
			t.Errorf("workers=%d: file and slice builds save different bytes", w)
		}
	}
}

// TestBuildSignedZerosAcrossWorkers pins the order of equal samples that
// differ in their bits: float runs whose samples hold both −0 and +0, in
// shares that vary from run to run, must save the same bytes from Build at
// Workers 1, 2, 3 and 7, build after build whatever worker samples which
// run, as from a StreamBuilder over the same keys.
func TestBuildSignedZerosAcrossWorkers(t *testing.T) {
	cfg := Config{RunLen: 2048, SampleSize: 64}
	rng := rand.New(rand.NewSource(23))
	fs := make([]float64, 80*cfg.RunLen+777) // 80 runs and a ragged one
	for run := 0; run*cfg.RunLen < len(fs); run++ {
		negShare := rng.Float64() // of this run's zeros, the share of −0
		for i := run * cfg.RunLen; i < min((run+1)*cfg.RunLen, len(fs)); i++ {
			switch {
			case rng.Intn(2) == 0:
				fs[i] = rng.NormFloat64()
			case rng.Float64() < negShare:
				fs[i] = math.Copysign(0, -1)
			default:
				fs[i] = 0
			}
		}
	}
	f32 := make([]float32, len(fs))
	for i, f := range fs {
		f32[i] = float32(f)
	}
	t.Run("float64", func(t *testing.T) { checkSignedZeros(t, fs, runio.Float64Codec{}, cfg) })
	t.Run("float32", func(t *testing.T) { checkSignedZeros(t, f32, runio.Float32Codec{}, cfg) })
}

func checkSignedZeros[T float32 | float64](t *testing.T, xs []T, codec runio.Codec[T], cfg Config) {
	save := func(s *Summary[T]) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := SaveSummary(&buf, s, codec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sb, err := NewStreamBuilder[T](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	streamed, err := sb.Summary()
	if err != nil {
		t.Fatal(err)
	}
	var neg, pos bool
	for _, v := range streamed.Samples() {
		if v == 0 {
			neg = neg || math.Signbit(float64(v))
			pos = pos || !math.Signbit(float64(v))
		}
	}
	if !neg || !pos {
		t.Fatalf("the samples hold −0: %v, +0: %v; the keys must put both among them", neg, pos)
	}
	want := save(streamed)
	for _, w := range []int{1, 2, 3, 7} {
		cfg.Workers = w
		for rep := range 10 {
			built, err := BuildFromSlice(xs, cfg)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if !bytes.Equal(save(built), want) {
				t.Errorf("workers=%d, build %d: saves different bytes than the StreamBuilder", w, rep)
			}
		}
	}
}

// errReader delivers a few good runs, then fails.
type errReader struct {
	runs int
	m    int
}

func (e *errReader) NextRun() ([]int64, error) {
	if e.runs == 0 {
		return nil, fmt.Errorf("disk on fire")
	}
	e.runs--
	run := make([]int64, e.m)
	return run, nil
}

func (e *errReader) Count() int64 { return int64(e.runs * e.m) }
func (e *errReader) RunLen() int  { return e.m }
func (e *errReader) Close() error { return nil }

// TestBuildConcurrentPropagatesReadError checks Build's workers shut down
// cleanly and surface a mid-scan read failure at every worker count.
func TestBuildConcurrentPropagatesReadError(t *testing.T) {
	for _, w := range workerMatrix() {
		cfg := Config{RunLen: 64, SampleSize: 8, Workers: w}
		_, err := Build[int64](&errReader{runs: 5, m: 64}, cfg)
		if err == nil {
			t.Fatalf("workers=%d: expected read error", w)
		}
	}
}

// TestBuildConcurrentEmpty checks the empty-dataset path at every worker
// count.
func TestBuildConcurrentEmpty(t *testing.T) {
	for _, w := range workerMatrix() {
		cfg := Config{RunLen: 64, SampleSize: 8, Workers: w}
		sum, err := BuildFromSlice[int64](nil, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if sum.N() != 0 {
			t.Fatalf("workers=%d: n=%d", w, sum.N())
		}
	}
}

// TestBuildConcurrentPrewrappedPrefetch verifies Build does not double-wrap
// a reader the caller already prefetches.
func TestBuildConcurrentPrewrappedPrefetch(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(21, 1<<30), 20_000)
	cfg := Config{RunLen: 1024, SampleSize: 64, Workers: 4}
	ds := runio.NewMemoryDataset(xs, 8)
	rr, err := ds.Runs(cfg.RunLen)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Build(runio.Prefetch(rr, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := buildWith(t, xs, cfg, 1)
	if d := summaryDiff(want, sum); d != "" {
		t.Errorf("prefetch-wrapped build diverged from sequential: %s", d)
	}
}

// TestConfigWorkersValidation pins the Workers constraint.
func TestConfigWorkersValidation(t *testing.T) {
	cfg := Config{RunLen: 8, SampleSize: 2, Workers: -1}
	if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative Workers: got %v", err)
	}
}

// eofCheckReader wraps a reader and records whether NextRun is called again
// after EOF (Build must not).
type eofCheckReader struct {
	inner runio.RunReader[int64]
	eof   bool
	after bool
}

func (r *eofCheckReader) NextRun() ([]int64, error) {
	if r.eof {
		r.after = true
	}
	run, err := r.inner.NextRun()
	if err == io.EOF {
		r.eof = true
	}
	return run, err
}

func (r *eofCheckReader) Count() int64 { return r.inner.Count() }
func (r *eofCheckReader) RunLen() int  { return r.inner.RunLen() }
func (r *eofCheckReader) Close() error { return r.inner.Close() }

// TestBuildConcurrentStopsAtEOF ensures Build stops reading once the
// stream ends.
func TestBuildConcurrentStopsAtEOF(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(31, 1<<30), 10_000)
	ds := runio.NewMemoryDataset(xs, 8)
	rr, err := ds.Runs(512)
	if err != nil {
		t.Fatal(err)
	}
	chk := &eofCheckReader{inner: rr}
	if _, err := Build[int64](chk, Config{RunLen: 512, SampleSize: 64, Workers: 3}); err != nil {
		t.Fatal(err)
	}
	if chk.after {
		t.Error("NextRun called after EOF")
	}
}

// TestBuildRecyclesRuns pins what one Build allocates over a 64-run file,
// over the file through a reader that embeds the file reader and nothing
// else, and over the same keys in memory, at Workers 2: the runs out at
// once — two prefetched, one being read, one per worker — plus each
// worker's scratch run, the sample lists and their merge, not one run per
// run of the scan. The workers give each sampled run to the run pool, and
// the readers read later runs into it, whatever wraps them. An
// ExactQuantile pass and a ReadAll over the file give their runs back
// too, and keep to the same bound, ReadAll on top of the slice it
// returns. Giving a run back allocates nothing, so a pass's allocation
// count shows any allocation made per run: a build makes one sample list
// for each of its 64 runs and fewer than 96 allocations besides, the exact
// pass reads 1,024 runs of 1,024 keys in fewer than 48, and ReadAll reads
// 16 runs of 65,536 keys in fewer than 12. The bounds are skipped under
// the race detector, under which sync.Pool drops a random share of Puts.
func TestBuildRecyclesRuns(t *testing.T) {
	cfg := Config{RunLen: 1 << 14, SampleSize: 256, Workers: 2}
	xs := datagen.Generate(datagen.NewUniform(41, 1<<40), 64*cfg.RunLen)
	path := filepath.Join(t.TempDir(), "keys.run")
	if err := runio.WriteFile(path, runio.Int64Codec{}, xs); err != nil {
		t.Fatal(err)
	}
	file, err := runio.OpenFile(path, runio.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := BuildFromSlice(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const runBytes = 8 << 14
	samples := uint64(8 * len(xs) / cfg.Step())
	limit := 7*runBytes + 4*samples
	build := func(ds runio.Dataset[int64]) func() error {
		return func() error {
			_, err := BuildFromDataset(ds, cfg)
			return err
		}
	}
	for _, c := range []struct {
		name   string
		pass   func() error
		result uint64 // bytes of what the pass returns, allowed on top
		allocs uint64 // allocations allowed, a build's sample lists included
	}{
		{"file", build(file), 0, 64 + 96},
		{"wrapped", build(wrappedDataset{file}), 0, 64 + 96},
		{"memory", build(runio.NewMemoryDataset(xs, 8)), 0, 64 + 96},
		{"ExactQuantile", func() error {
			_, err := ExactQuantile(file, sum, 0.5)
			return err
		}, 0, 48},
		{"ReadAll", func() error {
			_, err := runio.ReadAll(file)
			return err
		}, 8 * uint64(len(xs)), 12},
	} {
		least, fewest := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := c.pass(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		t.Logf("%s: one pass allocated %.1f runs of %d KiB besides its result, in %d allocations",
			c.name, (float64(least)-float64(c.result))/runBytes, runBytes>>10, fewest)
		if least > limit+c.result && !raceEnabled {
			t.Errorf("%s: one pass allocated %d KiB, want at most %d KiB (7 runs of %d KiB and 4× the %d KiB of samples, plus %d KiB of result)",
				c.name, least>>10, (limit+c.result)>>10, runBytes>>10, samples>>10, c.result>>10)
		}
		if fewest > c.allocs && !raceEnabled {
			t.Errorf("%s: one pass made %d allocations, want at most %d: does giving a run back allocate?",
				c.name, fewest, c.allocs)
		}
	}
}

// wrappedDataset scans a dataset through a reader that embeds the
// dataset's own reader and nothing else, as a caller that times or counts
// reads would wrap it.
type wrappedDataset struct{ runio.Dataset[int64] }

func (w wrappedDataset) Runs(m int) (runio.RunReader[int64], error) {
	rr, err := w.Dataset.Runs(m)
	return struct{ runio.RunReader[int64] }{rr}, err
}

// decodeOnly wraps a built-in codec in a type the file reader does not
// recognise, which forces its decode path.
type decodeOnly struct{ runio.Int64Codec }

// TestScanDetectsCorruptFile flips one payload bit of a run file: ReadAll,
// Build at Workers 1 and 2 and ExactQuantile must fail with
// runio.ErrCorrupt, on the file reader's direct and decode paths, where
// the same scans of the clean file succeed.
func TestScanDetectsCorruptFile(t *testing.T) {
	cfg := Config{RunLen: 1 << 10, SampleSize: 64}
	xs := datagen.Generate(datagen.NewUniform(43, 1<<40), 20*cfg.RunLen+77)
	sum, err := BuildFromSlice(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "keys.run")
	if err := runio.WriteFile(path, runio.Int64Codec{}, xs); err != nil {
		t.Fatal(err)
	}
	build := func(workers int) func(runio.Dataset[int64]) error {
		return func(ds runio.Dataset[int64]) error {
			c := cfg
			c.Workers = workers
			_, err := BuildFromDataset(ds, c)
			return err
		}
	}
	scans := map[string]func(runio.Dataset[int64]) error{
		"ReadAll": func(ds runio.Dataset[int64]) error {
			_, err := runio.ReadAll(ds)
			return err
		},
		"Build at Workers 1": build(1),
		"Build at Workers 2": build(2),
		"ExactQuantile": func(ds runio.Dataset[int64]) error {
			_, err := ExactQuantile(ds, sum, 0.5)
			return err
		},
	}
	check := func(corrupt bool) {
		for _, direct := range []bool{true, false} {
			var ds runio.Dataset[int64]
			var err error
			if direct {
				ds, err = runio.OpenFile(path, runio.Int64Codec{})
			} else {
				ds, err = runio.OpenFile[int64](path, decodeOnly{})
			}
			if err != nil {
				t.Fatal(err)
			}
			for name, scan := range scans {
				err := scan(ds)
				switch {
				case corrupt && !errors.Is(err, runio.ErrCorrupt):
					t.Errorf("%s (direct %v) over the corrupt file: %v, want ErrCorrupt", name, direct, err)
				case !corrupt && err != nil:
					t.Errorf("%s (direct %v) over the clean file: %v", name, direct, err)
				}
			}
		}
	}
	check(false)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1 << 5
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	check(true)
}
