package opaq_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"sort"
	"testing"

	"opaq"
)

// Tests of the public facade: everything a downstream user can reach from
// `import "opaq"`, across element types and storage backends.

func TestPublicAPIBoundsInt64(t *testing.T) {
	xs := make([]int64, 10_000)
	for i := range xs {
		xs[i] = int64((i * 7919) % 10_000)
	}
	sum, err := opaq.BuildFromSlice(xs, opaq.Config{RunLen: 1000, SampleSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sum.Bounds(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Lower > 4999 || b.Upper < 4999 {
		t.Errorf("median of permutation of 0..9999: [%d,%d] must contain 4999", b.Lower, b.Upper)
	}
}

func TestPublicAPIFloat64(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64((i*31)%5000) / 10
	}
	sum, err := opaq.BuildFromSlice(xs, opaq.Config{RunLen: 500, SampleSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sum.Bounds(0.25)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	truth := sorted[1250-1]
	if b.Lower > truth || truth > b.Upper {
		t.Errorf("float64 quantile %g outside [%g,%g]", truth, b.Lower, b.Upper)
	}
}

func TestPublicAPIStrings(t *testing.T) {
	// Generic over any cmp.Ordered — strings work too.
	words := []string{"fig", "apple", "pear", "date", "kiwi", "lime", "plum", "mango"}
	sum, err := opaq.BuildFromSlice(words, opaq.Config{RunLen: 4, SampleSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sum.Bounds(0.5)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]string(nil), words...)
	sort.Strings(sorted)
	truth := sorted[3] // rank ⌈0.5·8⌉ = 4
	if b.Lower > truth || truth > b.Upper {
		t.Errorf("string median %q outside [%q,%q]", truth, b.Lower, b.Upper)
	}
}

func TestPublicAPIFileBacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.run")
	n := int64(50_000)
	if err := opaq.WriteInt64FileFunc(path, n, func(i int64) int64 { return (i * 6364136223846793005) % 99991 }); err != nil {
		t.Fatal(err)
	}
	ds, err := opaq.OpenInt64File(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Count() != n {
		t.Fatalf("Count = %d", ds.Count())
	}
	sum, err := opaq.BuildFromDataset(ds, opaq.Config{RunLen: 5000, SampleSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	// One pass exactly: 10 runs of 5000.
	if got := ds.Stats().ReadOps; got != 10 {
		t.Errorf("build used %d read ops, want 10 (one pass)", got)
	}
	exact, err := opaq.ExactQuantile(ds, sum, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sum.Bounds(0.5)
	if exact < b.Lower || exact > b.Upper {
		t.Errorf("exact median %d outside its own enclosure [%d,%d]", exact, b.Lower, b.Upper)
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	xs := make([]int64, 8000)
	for i := range xs {
		xs[i] = int64(i * 3)
	}
	sum, err := opaq.BuildFromSlice(xs, opaq.Config{RunLen: 800, SampleSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := opaq.SaveSummaryInt64(&buf, sum); err != nil {
		t.Fatal(err)
	}
	got, err := opaq.LoadSummaryInt64(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sum.Bounds(0.9)
	b, _ := got.Bounds(0.9)
	if a.Lower != b.Lower || a.Upper != b.Upper {
		t.Error("bounds changed across save/load via facade")
	}
}

func TestPublicAPIMultipass(t *testing.T) {
	xs := make([]int64, 100_000)
	for i := range xs {
		xs[i] = int64((i*48271)%65537 - 32768)
	}
	ds := opaq.NewMemoryDataset(xs, 8)
	v, passes, err := opaq.ExactQuantileMultipass(ds, 0.75, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if want := sorted[75_000-1]; v != want {
		t.Errorf("multipass p75 = %d, want %d", v, want)
	}
	if passes < 2 {
		t.Errorf("expected multiple passes with budget 1000 over 100k, got %d", passes)
	}
}

func TestPublicAPIErrorsAreMatchable(t *testing.T) {
	if _, err := opaq.BuildFromSlice([]int64{1}, opaq.Config{RunLen: 0}); !errors.Is(err, opaq.ErrConfig) {
		t.Errorf("want ErrConfig, got %v", err)
	}
	sum, err := opaq.BuildFromSlice([]int64{1, 2, 3, 4}, opaq.Config{RunLen: 4, SampleSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sum.Bounds(2); !errors.Is(err, opaq.ErrPhi) {
		t.Errorf("want ErrPhi, got %v", err)
	}
	empty, _ := opaq.BuildFromSlice[int64](nil, opaq.Config{RunLen: 4, SampleSize: 2})
	if _, err := empty.Bounds(0.5); !errors.Is(err, opaq.ErrEmpty) {
		t.Errorf("want ErrEmpty, got %v", err)
	}
	other, _ := opaq.BuildFromSlice([]int64{1, 2, 3, 4}, opaq.Config{RunLen: 4, SampleSize: 4})
	if _, err := opaq.Merge(sum, other); !errors.Is(err, opaq.ErrIncompatible) {
		t.Errorf("want ErrIncompatible, got %v", err)
	}
}

func TestPublicAPIPlanThenBuild(t *testing.T) {
	plan, err := opaq.PlanConfig(1_000_000, 50_000, 20)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Config.SampleSize < 40 {
		t.Errorf("planned s = %d < 2q", plan.Config.SampleSize)
	}
	xs := make([]int64, 100_000)
	for i := range xs {
		xs[i] = int64(i ^ 0x5a5a)
	}
	if _, err := opaq.BuildFromSlice(xs, plan.Config); err != nil {
		t.Errorf("planned config failed to build: %v", err)
	}
}

func TestPublicAPIHistogramAndSort(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.run")
	out := filepath.Join(dir, "out.run")
	n := int64(30_000)
	if err := opaq.WriteInt64FileFunc(in, n, func(i int64) int64 { return (i * 2654435761) % 1_000_003 }); err != nil {
		t.Fatal(err)
	}
	st, err := opaq.ExternalSort(in, out, opaq.SortOptions{
		Buckets: 4,
		Config:  opaq.Config{RunLen: 3000, SampleSize: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.N != n || st.Imbalance() > 1.5 {
		t.Errorf("sort stats: %+v", st)
	}
	ds, err := opaq.OpenInt64File(out)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := opaq.BuildFromDataset(ds, opaq.Config{RunLen: 3000, SampleSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	h, err := opaq.BuildHistogram(sum, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Buckets() != 10 {
		t.Errorf("Buckets = %d", h.Buckets())
	}
	if s := h.Selectivity(0, 500_000); s < 0.3 || s > 0.7 {
		t.Errorf("selectivity of lower half = %g, want ≈0.5", s)
	}
}

func TestPublicAPIParallel(t *testing.T) {
	const p = 4
	shards := make([][]int64, p)
	for i := range shards {
		sh := make([]int64, 8000)
		for j := range sh {
			sh[j] = int64((i*8000 + j) * 104729 % 999983)
		}
		shards[i] = sh
	}
	res, err := opaq.ParallelRun(shards, opaq.ParallelConfig{
		Core:  opaq.Config{RunLen: 2000, SampleSize: 200},
		Procs: p,
		Merge: opaq.BitonicMerge,
		Model: opaq.DefaultCostModel(),
		Disk:  opaq.DefaultDiskModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.N() != int64(p*8000) {
		t.Errorf("N = %d", res.Summary.N())
	}
	if res.TotalTime <= 0 {
		t.Error("simulated time must be positive")
	}
	var all []int64
	for _, sh := range shards {
		all = append(all, sh...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	b, err := res.Summary.Bounds(0.5)
	if err != nil {
		t.Fatal(err)
	}
	truth := all[len(all)/2-1]
	if b.Lower > truth || truth > b.Upper {
		t.Errorf("parallel median %d outside [%d,%d]", truth, b.Lower, b.Upper)
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	g := opaq.NewUniformGenerator(1, 100)
	for i := 0; i < 100; i++ {
		if v := g.Next(); v < 0 || v >= 100 {
			t.Fatalf("uniform out of range: %d", v)
		}
	}
	z, err := opaq.NewZipfGenerator(1, 1000, 0.86)
	if err != nil {
		t.Fatal(err)
	}
	if z.Name() != "zipf" {
		t.Errorf("Name = %q", z.Name())
	}
	if _, err := opaq.NewZipfGenerator(1, 0, 0.86); err == nil {
		t.Error("bad zipf universe should fail")
	}
}

// TestPublicAPIConcurrentBuildDeterminism pins the Workers guarantee at the
// public surface: summaries are bit-identical at every worker count.
func TestPublicAPIConcurrentBuildDeterminism(t *testing.T) {
	xs := make([]int64, 50_000)
	for i := range xs {
		xs[i] = int64((i * 2654435761) % 1_000_003)
	}
	cfg := opaq.Config{RunLen: 4000, SampleSize: 200}
	var want []int64
	for _, w := range []int{1, 2, 7} {
		c := cfg
		c.Workers = w
		sum, err := opaq.BuildFromSlice(xs, c)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want = sum.Samples()
			continue
		}
		got := sum.Samples()
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d samples, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: sample %d = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

// TestPublicAPIGenericFiles round-trips a float32 run file through the
// codec-generic Open/Write surface and builds a summary over it.
func TestPublicAPIGenericFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.run")
	xs := make([]float32, 8_000)
	for i := range xs {
		xs[i] = float32(i%997) / 997
	}
	if err := opaq.WriteFile(path, opaq.Float32Codec{}, xs); err != nil {
		t.Fatal(err)
	}
	ds, err := opaq.OpenFile[float32](path, opaq.Float32Codec{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := opaq.BuildFromDataset(ds, opaq.Config{RunLen: 1000, SampleSize: 100, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sum.Bounds(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Lower > 0.5 || b.Upper < 0.49 {
		t.Errorf("median enclosure [%g, %g] implausible", b.Lower, b.Upper)
	}
}

// TestPublicAPIGenericSortFloat64 externally sorts a float64 run file via
// the generic Sort with a concurrent splitter pass.
func TestPublicAPIGenericSortFloat64(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.run")
	out := filepath.Join(dir, "out.run")
	xs := make([]float64, 30_000)
	for i := range xs {
		xs[i] = float64((i*48271)%30_011) - 15_000.5
	}
	if err := opaq.WriteFloat64File(in, xs); err != nil {
		t.Fatal(err)
	}
	st, err := opaq.Sort(in, out, opaq.Float64Codec{}, opaq.SortOptions{
		Buckets: 8,
		Config:  opaq.Config{RunLen: 2000, SampleSize: 100, Workers: 2},
		TempDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.N != int64(len(xs)) {
		t.Fatalf("N = %d", st.N)
	}
	ds, err := opaq.OpenFloat64File(out)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ds.Runs(1 << 14)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for {
		run, err := rr.NextRun()
		if err != nil {
			break
		}
		got = append(got, run...)
	}
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("got %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestPublicAPIGenericPersistence checkpoints a float64 summary through the
// generic Save/Load pair and the typed wrappers.
func TestPublicAPIGenericPersistence(t *testing.T) {
	xs := make([]float64, 6_000)
	for i := range xs {
		xs[i] = float64(i) * 0.25
	}
	sum, err := opaq.BuildFromSlice(xs, opaq.Config{RunLen: 600, SampleSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := opaq.SaveSummaryFloat64(&buf, sum); err != nil {
		t.Fatal(err)
	}
	loaded, err := opaq.LoadSummary[float64](bytes.NewReader(buf.Bytes()), opaq.Float64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != sum.N() || loaded.SampleCount() != sum.SampleCount() {
		t.Fatalf("loaded summary n=%d samples=%d, want n=%d samples=%d",
			loaded.N(), loaded.SampleCount(), sum.N(), sum.SampleCount())
	}
	wb, _ := sum.Bounds(0.9)
	lb, err := loaded.Bounds(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if wb.Lower != lb.Lower || wb.Upper != lb.Upper {
		t.Errorf("bounds diverged after round trip: %+v vs %+v", wb, lb)
	}
	// A wrong codec must be rejected, not misdecoded.
	if _, err := opaq.LoadSummary[int64](bytes.NewReader(buf.Bytes()), opaq.Int64Codec{}); err == nil {
		t.Error("loading float64 checkpoint with int64 codec should fail")
	}
}

// BuildSharded through the public surface: byte-identical to the
// sequential build across shard counts.
func TestPublicAPIBuildSharded(t *testing.T) {
	const runLen = 1000
	cfg := opaq.Config{RunLen: runLen, SampleSize: 100}
	xs := make([]int64, 24*runLen)
	for i := range xs {
		xs[i] = int64((i * 2654435761) % 1_000_003)
	}
	seq, err := opaq.BuildFromSlice(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := opaq.SaveSummaryInt64(&want, seq); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 8, 4} {
		got, err := opaq.BuildShardedFromSlice(xs, cfg, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var buf bytes.Buffer
		if err := opaq.SaveSummaryInt64(&buf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want.Bytes()) {
			t.Errorf("shards=%d: summary bytes differ from sequential build", shards)
		}
	}

	// Explicit per-shard datasets.
	pieces, err := opaq.ShardSlices(xs, 4, runLen)
	if err != nil {
		t.Fatal(err)
	}
	datasets := make([]opaq.Dataset[int64], len(pieces))
	for i, p := range pieces {
		datasets[i] = opaq.NewMemoryDataset(p, 8)
	}
	got, err := opaq.BuildSharded(datasets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := opaq.SaveSummaryInt64(&buf, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Error("BuildSharded over datasets differs from sequential build")
	}
}

// The generic multipass surface accepts float64 datasets.
func TestPublicAPIMultipassFloat64(t *testing.T) {
	xs := make([]float64, 50_000)
	for i := range xs {
		xs[i] = float64((i*48271)%65537) / 7
	}
	ds := opaq.NewMemoryDataset(xs, 8)
	v, passes, err := opaq.ExactQuantileMultipass(ds, 0.5, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if want := sorted[25_000-1]; v != want {
		t.Errorf("float multipass median = %g, want %g", v, want)
	}
	if passes < 2 {
		t.Errorf("expected multiple passes, got %d", passes)
	}
}

// Regression: BuildShardedFromSlice used to model every element at 8 bytes
// regardless of type, so 32-bit builds reported twice their real I/O. The
// modeled stats of a float32 sharded build must charge 4 bytes per element.
func TestShardedFloat32ModeledStats(t *testing.T) {
	const runLen, n = 1 << 10, 50_000
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32((i*48271)%65537) / 3
	}
	datasets, err := opaq.MemoryShards(xs, 4, runLen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opaq.Config{RunLen: runLen, SampleSize: 1 << 6}
	sum, err := opaq.BuildSharded(datasets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.N() != n {
		t.Fatalf("n = %d, want %d", sum.N(), n)
	}
	var total int64
	for _, ds := range datasets {
		total += ds.Stats().BytesRead
	}
	if want := int64(n) * int64(opaq.ElemSize[float32]()); total != want {
		t.Errorf("float32 sharded build modeled %d bytes read, want %d (4 bytes/elem)", total, want)
	}
	if opaq.ElemSize[float32]() != 4 || opaq.ElemSize[int64]() != 8 {
		t.Errorf("ElemSize: float32=%d int64=%d, want 4 and 8",
			opaq.ElemSize[float32](), opaq.ElemSize[int64]())
	}

	// The sharded summary still matches the sequential one bit-for-bit.
	seq, err := opaq.BuildFromSlice(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := opaq.SaveSummary(&a, seq, opaq.Float32Codec{}); err != nil {
		t.Fatal(err)
	}
	if err := opaq.SaveSummary(&b, sum, opaq.Float32Codec{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("float32 sharded summary differs from sequential build")
	}
}
