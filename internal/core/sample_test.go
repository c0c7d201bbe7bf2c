package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"opaq/internal/datagen"
	"opaq/internal/merge"
	"opaq/internal/runio"
	"opaq/internal/selection"
)

// multiSelectBuild is the sample phase as the paper states it, kept as a
// reference: every run of xs multi-selected at ranks k·step−1 with its
// run-index RNG, the sample lists merged, nothing radix-selected.
func multiSelectBuild(t *testing.T, xs []int64, cfg Config) *Summary[int64] {
	t.Helper()
	step := cfg.Step()
	parts := SummaryParts[int64]{Step: int64(step), N: int64(len(xs)), Min: xs[0], Max: xs[0]}
	var lists [][]int64
	for idx := int64(0); len(xs) > 0; idx++ {
		run := append([]int64(nil), xs[:min(cfg.RunLen, len(xs))]...)
		xs = xs[len(run):]
		for _, v := range run {
			parts.Min, parts.Max = min(parts.Min, v), max(parts.Max, v)
		}
		si := len(run) / step
		parts.Runs++
		parts.Leftover += int64(len(run) - si*step)
		if si == 0 {
			continue
		}
		ranks := make([]int, si)
		for k := range ranks {
			ranks[k] = (k+1)*step - 1
		}
		samples, err := selection.MultiSelect(run, ranks, rand.New(rand.NewSource(runSeed(idx))))
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, samples)
	}
	parts.Samples = merge.KWay(lists)
	sum, err := NewSummary(parts)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func savedBytes(t *testing.T, s *Summary[int64]) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveSummary(&buf, s, runio.Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildMatchesMultiSelectBytes pins that the radix-selected sample phase
// saves the same checkpoint bytes as a multi-selection build, for int64
// keys: uniform, duplicate-heavy and narrow-range inputs with a ragged
// tail, at one and several workers and through the StreamBuilder.
func TestBuildMatchesMultiSelectBytes(t *testing.T) {
	zipf, err := datagen.NewZipf(5, 300, 0.86)
	if err != nil {
		t.Fatal(err)
	}
	datasets := map[string][]int64{
		"uniform": datagen.Generate(datagen.NewUniform(1, math.MaxInt64), 40_000+123),
		"zipf":    datagen.Generate(zipf, 40_000+77),
		"narrow":  datagen.Generate(datagen.NewNormal(2, 0, 50), 40_000+5),
	}
	cfg := Config{RunLen: 4096, SampleSize: 128}
	for name, xs := range datasets {
		want := savedBytes(t, multiSelectBuild(t, xs, cfg))
		for _, w := range []int{1, 3} {
			if got := savedBytes(t, buildWith(t, xs, cfg, w)); !bytes.Equal(got, want) {
				t.Errorf("%s, workers=%d: saved summary differs from the multi-selection build", name, w)
			}
		}
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
		if got := savedBytes(t, streamed); !bytes.Equal(got, want) {
			t.Errorf("%s: streamed summary differs from the multi-selection build", name)
		}
	}
}

// TestBuildStringKeysAcrossWorkers sends string runs, which keep the
// seeded multi-selection, through Build at several worker counts and
// through StreamBuilder.AddBatch: duplicate-heavy keys, several runs and
// a ragged tail. Every path must give the same parts, and the merged
// samples must be each run's sorted keys at ranks k·step−1.
func TestBuildStringKeysAcrossWorkers(t *testing.T) {
	cfg := Config{RunLen: 512, SampleSize: 32}
	step := cfg.Step()
	rng := rand.New(rand.NewSource(17))
	xs := make([]string, 7*cfg.RunLen+300)
	for i := range xs {
		xs[i] = fmt.Sprintf("key-%02d", rng.Intn(40))
	}
	var want []string
	for run := xs; len(run) > 0; run = run[min(cfg.RunLen, len(run)):] {
		sorted := slices.Sorted(slices.Values(run[:min(cfg.RunLen, len(run))]))
		for k := step; k <= len(sorted); k += step {
			want = append(want, sorted[k-1])
		}
	}
	slices.Sort(want)

	var sums []*Summary[string]
	for _, w := range []int{1, 2, 7} {
		cfg.Workers = w
		sum, err := BuildFromSlice(xs, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		sums = append(sums, sum)
	}
	sb, err := NewStreamBuilder[string](cfg)
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
	sums = append(sums, streamed)

	for i, s := range sums {
		if d := summaryDiff(s, sums[0]); d != "" {
			t.Errorf("path %d (workers 1, 2, 7, stream): parts differ from workers=1: %s", i, d)
		}
	}
	if got := sums[0].Samples(); !slices.Equal(got, want) {
		t.Fatalf("samples differ from each run's sorted keys at ranks k·step−1:\n got %v\nwant %v", got, want)
	}
	if p := sums[0].Parts(); p.N != int64(len(xs)) || p.Runs != 8 || p.Min != "key-00" || p.Max != "key-39" {
		t.Fatalf("parts: n=%d runs=%d min=%q max=%q", p.N, p.Runs, p.Min, p.Max)
	}
}

// TestBuildRejectsNaN: a float64 build over keys holding one NaN fails
// with ErrNaN at every worker count instead of returning NaN extrema.
func TestBuildRejectsNaN(t *testing.T) {
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64(i)
	}
	xs[2500] = math.NaN()
	for _, w := range []int{1, 2} {
		if _, err := BuildFromSlice(xs, Config{RunLen: 1024, SampleSize: 32, Workers: w}); !errors.Is(err, ErrNaN) {
			t.Errorf("workers=%d: Build error = %v, want ErrNaN", w, err)
		}
	}
}

// TestIndexNaN pins where the NaN check runs: every float kind, named
// ones included, is read key by key, and integer and string keys never
// hold a NaN.
func TestIndexNaN(t *testing.T) {
	type celsius float32
	nan := math.NaN()
	if i := IndexNaN([]float64{1, 2, nan, nan}); i != 2 {
		t.Errorf("float64: IndexNaN = %d, want 2", i)
	}
	if i := IndexNaN([]float32{float32(nan)}); i != 0 {
		t.Errorf("float32: IndexNaN = %d, want 0", i)
	}
	if i := IndexNaN([]celsius{-4, 0, celsius(nan)}); i != 2 {
		t.Errorf("named float32: IndexNaN = %d, want 2", i)
	}
	if i := IndexNaN([]float64{math.Inf(-1), math.Copysign(0, -1), math.Inf(1)}); i != -1 {
		t.Errorf("float64 without NaN: IndexNaN = %d, want -1", i)
	}
	if i := IndexNaN([]int64{math.MinInt64, -1, 0, math.MaxInt64}); i != -1 {
		t.Errorf("int64: IndexNaN = %d, want -1", i)
	}
	if i := IndexNaN([]string{"NaN"}); i != -1 {
		t.Errorf("string: IndexNaN = %d, want -1", i)
	}
}

// TestStreamBuilderAddRejectsNaN: Add refuses a NaN and does not count it.
func TestStreamBuilderAddRejectsNaN(t *testing.T) {
	sb, err := NewStreamBuilder[float64](Config{RunLen: 256, SampleSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Add(math.NaN()); !errors.Is(err, ErrNaN) {
		t.Fatalf("Add(NaN) = %v, want ErrNaN", err)
	}
	if n := sb.N(); n != 0 {
		t.Fatalf("N = %d after a rejected Add, want 0", n)
	}
}

// TestStreamBuilderAddBatchRejectsNaN: a batch whose NaN sits in its
// second run-sized chunk is rejected whole, before its first chunk is
// buffered or flushed.
func TestStreamBuilderAddBatchRejectsNaN(t *testing.T) {
	cfg := Config{RunLen: 256, SampleSize: 16}
	sb, err := NewStreamBuilder[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.AddBatch([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	batch := make([]float64, 3*cfg.RunLen)
	for i := range batch {
		batch[i] = float64(i)
	}
	batch[cfg.RunLen+10] = math.NaN()
	if err := sb.AddBatch(batch); !errors.Is(err, ErrNaN) {
		t.Fatalf("AddBatch with a NaN = %v, want ErrNaN", err)
	}
	if n, buffered := sb.N(), sb.Buffered(); n != 3 || buffered != 3 {
		t.Fatalf("after rejected batch: N = %d, Buffered = %d; want 3 and 3", n, buffered)
	}
	sum, err := sb.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.N() != 3 || sum.Min() != 1 || sum.Max() != 3 {
		t.Fatalf("summary after rejected batch: n=%d min=%v max=%v; want 3, 1, 3", sum.N(), sum.Min(), sum.Max())
	}
}
