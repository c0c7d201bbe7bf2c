package extsort

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"opaq/internal/core"
	"opaq/internal/datagen"
	"opaq/internal/runio"
)

func defaultOpts() Options {
	return Options{
		Buckets: 8,
		Config:  core.Config{RunLen: 1000, SampleSize: 100},
	}
}

func TestSortFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.run")
	out := filepath.Join(dir, "out.run")
	xs := datagen.Generate(datagen.NewUniform(3, 1<<40), 50_000)
	if err := runio.WriteFile(in, runio.Int64Codec{}, xs); err != nil {
		t.Fatal(err)
	}
	st, err := Sort(in, out, runio.Int64Codec{}, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 50_000 {
		t.Fatalf("N = %d", st.N)
	}
	ds, err := runio.OpenFile(out, runio.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runio.ReadAll[int64](ds)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int64(nil), xs...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("output has %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Partition balance: with s=100 ≥ 2k=16, no bucket should exceed
	// ideal + n/s by much.
	if st.Imbalance() > 1.5 {
		t.Errorf("imbalance = %g, want ≤ 1.5", st.Imbalance())
	}
}

func TestSortEmptyFile(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.run")
	out := filepath.Join(dir, "out.run")
	if err := runio.WriteFile(in, runio.Int64Codec{}, nil); err != nil {
		t.Fatal(err)
	}
	st, err := Sort(in, out, runio.Int64Codec{}, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 0 {
		t.Fatalf("N = %d", st.N)
	}
	ds, err := runio.OpenFile(out, runio.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Count() != 0 {
		t.Fatalf("output count = %d", ds.Count())
	}
}

func TestSortValidation(t *testing.T) {
	if _, err := Sort[int64]("x", "y", runio.Int64Codec{}, Options{Buckets: 0, Config: core.Config{RunLen: 4, SampleSize: 2}}); err == nil {
		t.Error("0 buckets should fail")
	}
	if _, err := Sort[int64]("x", "y", runio.Int64Codec{}, Options{Buckets: 2, Config: core.Config{RunLen: 0}}); err == nil {
		t.Error("invalid config should fail")
	}
	if _, err := Sort("/nonexistent/in.run", "/tmp/out.run", runio.Int64Codec{}, defaultOpts()); err == nil {
		t.Error("missing input should fail")
	}
}

// sortSlice sorts xs the way Sort sorts a file: it writes xs to a run
// file, sorts that with Sort and returns the sorted keys with the sort's
// statistics.
func sortSlice(t *testing.T, xs []int64, opts Options) ([]int64, Stats[int64], error) {
	t.Helper()
	dir := t.TempDir()
	in, out := filepath.Join(dir, "in.run"), filepath.Join(dir, "out.run")
	if err := runio.WriteFile(in, runio.Int64Codec{}, xs); err != nil {
		t.Fatal(err)
	}
	opts.TempDir = dir
	st, err := Sort(in, out, runio.Int64Codec{}, opts)
	if err != nil {
		return nil, st, err
	}
	ds, err := runio.OpenFile(out, runio.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runio.ReadAll[int64](ds)
	if err != nil {
		t.Fatal(err)
	}
	return got, st, nil
}

func TestSortSliceZipfDuplicates(t *testing.T) {
	xs, err := datagen.PaperDataset("zipf", 30_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := sortSlice(t, xs, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int64(nil), xs...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	total := int64(0)
	for _, c := range st.BucketSizes {
		total += c
	}
	if total != st.N {
		t.Fatalf("bucket sizes sum to %d, want %d", total, st.N)
	}
}

func TestSortSliceEmpty(t *testing.T) {
	got, st, err := sortSlice(t, nil, defaultOpts())
	if err != nil || len(got) != 0 || st.N != 0 {
		t.Fatalf("sortSlice(nil) = %v, %+v, %v", got, st, err)
	}
}

func TestSortSliceSingleBucket(t *testing.T) {
	xs := []int64{5, 2, 9, 2, 7}
	opts := Options{Buckets: 1, Config: core.Config{RunLen: 4, SampleSize: 2}}
	got, _, err := sortSlice(t, xs, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 2, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

// Property: sortSlice output is the sorted permutation of its input for
// arbitrary data and bucket counts.
func TestQuickSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(raw []int64, kRaw uint8) bool {
		k := 1 + int(kRaw)%12
		opts := Options{Buckets: k, Config: core.Config{RunLen: 64, SampleSize: 32}}
		got, st, err := sortSlice(t, raw, opts)
		if err != nil {
			return false
		}
		want := append([]int64(nil), raw...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return st.N == int64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Load-balancing property (the [DNS91] motivation): with s ≥ 2k and unique
// keys, bucket populations stay within ideal + n/s + slack.
func TestPartitionBalanceBound(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(13, 1<<50), 64_000) // effectively unique
	opts := Options{Buckets: 16, Config: core.Config{RunLen: 4000, SampleSize: 400}}
	_, st, err := sortSlice(t, xs, opts)
	if err != nil {
		t.Fatal(err)
	}
	ideal := float64(st.N) / float64(opts.Buckets)
	slack := float64(st.N)/float64(opts.Config.SampleSize) + float64(opts.Config.RunLen)
	for i, c := range st.BucketSizes {
		if float64(c) > ideal+2*slack {
			t.Errorf("bucket %d population %d exceeds ideal %g + 2·slack %g", i, c, ideal, slack)
		}
	}
}

// Property: the file-based Sort is the sorted permutation of its input
// for random contents, including negative keys and duplicates.
func TestQuickSortFile(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dir := t.TempDir()
	i := 0
	f := func(seed int64, nRaw uint16, kRaw uint8) bool {
		i++
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%5000 + 1
		k := 1 + int(kRaw)%6
		xs := make([]int64, n)
		for j := range xs {
			xs[j] = r.Int63n(500) - 250
		}
		in := filepath.Join(dir, "in"+itoa(i)+".run")
		out := filepath.Join(dir, "out"+itoa(i)+".run")
		if err := runio.WriteFile(in, runio.Int64Codec{}, xs); err != nil {
			return false
		}
		st, err := Sort(in, out, runio.Int64Codec{}, Options{
			Buckets: k,
			Config:  core.Config{RunLen: 256, SampleSize: 32},
			TempDir: dir,
		})
		if err != nil || st.N != int64(n) {
			return false
		}
		ds, err := runio.OpenFile(out, runio.Int64Codec{})
		if err != nil {
			return false
		}
		got, err := runio.ReadAll[int64](ds)
		if err != nil {
			return false
		}
		want := append([]int64(nil), xs...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if len(got) != len(want) {
			return false
		}
		for j := range want {
			if got[j] != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	s := ""
	if n == 0 {
		return "0"
	}
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

// TestSortFloat64RoundTrip pins the codec-generic path: a float64 run file
// externally sorted via Sort[float64] comes back globally sorted with every
// element intact, including negatives and fractional values.
func TestSortFloat64RoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.run")
	out := filepath.Join(dir, "out.run")
	rng := rand.New(rand.NewSource(17))
	xs := make([]float64, 40_000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 1e6
	}
	if err := runio.WriteFile(in, runio.Float64Codec{}, xs); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Buckets: 8,
		Config:  core.Config{RunLen: 1000, SampleSize: 100, Workers: 3},
		TempDir: dir,
	}
	st, err := Sort(in, out, runio.Float64Codec{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != int64(len(xs)) {
		t.Fatalf("N = %d, want %d", st.N, len(xs))
	}
	if len(st.Splitters) != opts.Buckets-1 {
		t.Fatalf("got %d splitters, want %d", len(st.Splitters), opts.Buckets-1)
	}
	ds, err := runio.OpenFile(out, runio.Float64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runio.ReadAll[float64](ds)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("output has %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestSortUint64 exercises a third key type end to end.
func TestSortUint64(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.run")
	out := filepath.Join(dir, "out.run")
	rng := rand.New(rand.NewSource(23))
	xs := make([]uint64, 10_000)
	for i := range xs {
		xs[i] = rng.Uint64()
	}
	if err := runio.WriteFile(in, runio.Uint64Codec{}, xs); err != nil {
		t.Fatal(err)
	}
	st, err := Sort(in, out, runio.Uint64Codec{}, Options{
		Buckets: 4,
		Config:  core.Config{RunLen: 1000, SampleSize: 100},
		TempDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.N != int64(len(xs)) {
		t.Fatalf("N = %d", st.N)
	}
	ds, err := runio.OpenFile(out, runio.Uint64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runio.ReadAll[uint64](ds)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("output out of order at %d", i)
		}
	}
}

// TestSortRejectsNaN pins the NaN guard: a float64 input containing NaN
// must fail loudly instead of producing a silently mis-sorted file.
func TestSortRejectsNaN(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.run")
	out := filepath.Join(dir, "out.run")
	xs := make([]float64, 5_000)
	for i := range xs {
		xs[i] = float64(i)
	}
	xs[2_500] = math.NaN()
	if err := runio.WriteFile(in, runio.Float64Codec{}, xs); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(in, out, runio.Float64Codec{}, Options{
		Buckets: 4,
		Config:  core.Config{RunLen: 1000, SampleSize: 100},
		TempDir: dir,
	}); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("Sort with NaN input: got err %v, want NaN error", err)
	}
}

// The merge pass sorts buckets concurrently across Config.Workers; the
// output file must be byte-identical for every worker count.
func TestSortWorkerCountsIdenticalOutput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.run")
	xs := datagen.Generate(datagen.NewUniform(41, 1<<40), 40_000)
	if err := runio.WriteFile(in, runio.Int64Codec{}, xs); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, w := range []int{1, 2, 4, 7} {
		out := filepath.Join(dir, fmt.Sprintf("out-w%d.run", w))
		opts := defaultOpts()
		opts.Buckets = 11 // more buckets than workers: exercises the window
		opts.Config.Workers = w
		st, err := Sort(in, out, runio.Int64Codec{}, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if st.N != int64(len(xs)) {
			t.Fatalf("workers=%d: N = %d", w, st.N)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: output bytes differ from workers=1", w)
		}
	}
}
