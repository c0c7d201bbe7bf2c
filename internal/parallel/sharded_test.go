package parallel

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"opaq/internal/core"
	"opaq/internal/datagen"
	"opaq/internal/runio"
	"opaq/internal/simnet"
)

// summaryBytes serializes a summary so tests can assert byte-identity.
func summaryBytes[T interface{ int64 | float64 }](t *testing.T, sum *core.Summary[T]) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	switch s := any(sum).(type) {
	case *core.Summary[int64]:
		err = core.SaveSummary(&buf, s, runio.Int64Codec{})
	case *core.Summary[float64]:
		err = core.SaveSummary(&buf, s, runio.Float64Codec{})
	}
	if err != nil {
		t.Fatalf("serializing summary: %v", err)
	}
	return buf.Bytes()
}

func shardDatasets(xs []int64, shards, runLen int, t *testing.T) []runio.Dataset[int64] {
	t.Helper()
	pieces, err := ShardSlices(xs, shards, runLen)
	if err != nil {
		t.Fatal(err)
	}
	return memoryDatasets(pieces)
}

func memoryDatasets[T int64 | float64](pieces [][]T) []runio.Dataset[T] {
	out := make([]runio.Dataset[T], len(pieces))
	for i, p := range pieces {
		out[i] = runio.NewMemoryDataset(p, 8)
	}
	return out
}

// runBothAlgos runs the simulated machine over pieces, one rank per piece,
// under each merge algorithm the piece count allows (bitonic needs a power
// of two), and checks the summary bytes against want, the sequential
// build's.
func runBothAlgos[T interface{ int64 | float64 }](t *testing.T, pieces [][]T, cfg core.Config, want []byte) {
	t.Helper()
	for _, algo := range []MergeAlgo{BitonicMerge, SampleMerge} {
		p := len(pieces)
		if algo == BitonicMerge && p&(p-1) != 0 {
			continue
		}
		res, err := Run(pieces, simConfig(cfg, p, algo))
		if err != nil {
			t.Fatalf("%v/ranks=%d: simulated Run: %v", algo, p, err)
		}
		if !bytes.Equal(summaryBytes(t, res.Summary), want) {
			t.Errorf("%v/ranks=%d: simulated summary bytes differ from sequential build", algo, p)
		}
	}
}

func simConfig(cfg core.Config, p int, algo MergeAlgo) Config {
	return Config{
		Core: cfg, Procs: p, Merge: algo,
		Model: simnet.DefaultCostModel(), Disk: runio.DefaultDiskModel(),
	}
}

// The engine's determinism contract: the summary bytes are identical across
// shard counts 1/2/3/8, through BuildSharded and through the simulated
// machine (Run) under both merge algorithms, always matching the
// sequential build over the concatenated data.
func TestShardDeterminismAcrossCountsAlgosTransports(t *testing.T) {
	const runLen, sampleSize = 500, 50
	cfg := core.Config{RunLen: runLen, SampleSize: sampleSize}
	xs := datagen.Generate(datagen.NewUniform(9, 1<<48), 24*runLen)

	seq, err := core.BuildFromSlice(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := summaryBytes(t, seq)

	for _, shards := range []int{1, 2, 3, 8} {
		got, err := BuildSharded(shardDatasets(xs, shards, runLen, t), cfg)
		if err != nil {
			t.Fatalf("shards=%d: BuildSharded: %v", shards, err)
		}
		if !bytes.Equal(summaryBytes(t, got), want) {
			t.Errorf("shards=%d: sharded summary bytes differ from sequential build", shards)
		}

		// The simulated machine over the same run-aligned shards.
		pieces, err := ShardSlices(xs, shards, runLen)
		if err != nil {
			t.Fatal(err)
		}
		runBothAlgos(t, pieces, cfg, want)
	}
}

// The engine is generic: float64 keys, on the simulated machine through
// both merge algorithms, including the bitonic pad path (pads are the
// global max sample, not an int64 sentinel). A NaN in one shard fails
// both builds with ErrNaN.
func TestBuildShardedFloat64(t *testing.T) {
	const runLen = 256
	cfg := core.Config{RunLen: runLen, SampleSize: 32}
	xs := make([]float64, 16*runLen)
	g := datagen.NewNormal(5, 0, 1e6)
	for i := range xs {
		xs[i] = float64(g.Next()) / 1e3
	}
	seq, err := core.BuildFromSlice(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := summaryBytes(t, seq)
	pieces, err := ShardSlices(xs, 4, runLen)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildSharded(memoryDatasets(pieces), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(summaryBytes(t, got), want) {
		t.Error("float64 sharded summary differs from sequential")
	}
	runBothAlgos(t, pieces, cfg, want)

	pieces[2][runLen+7] = math.NaN()
	if _, err := BuildSharded(memoryDatasets(pieces), cfg); !errors.Is(err, core.ErrNaN) {
		t.Errorf("BuildSharded with a NaN: err = %v, want ErrNaN", err)
	}
	for _, algo := range []MergeAlgo{BitonicMerge, SampleMerge} {
		if _, err := Run(pieces, simConfig(cfg, len(pieces), algo)); !errors.Is(err, core.ErrNaN) {
			t.Errorf("%v: Run with a NaN: err = %v, want ErrNaN", algo, err)
		}
	}
}

// Keys equal to the bitonic pad value (the global max) must survive the
// merge: duplicates of the maximum across ragged shards are the worst case
// for sentinel-style padding.
func TestBuildShardedMaxDuplicates(t *testing.T) {
	const runLen = 100
	cfg := core.Config{RunLen: runLen, SampleSize: 10}
	xs := make([]int64, 8*runLen)
	for i := range xs {
		if i%3 == 0 {
			xs[i] = math.MaxInt64 // ties with any pad sentinel scheme
		} else {
			xs[i] = int64(i)
		}
	}
	seq, err := core.BuildFromSlice(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := summaryBytes(t, seq)
	got, err := BuildSharded(shardDatasets(xs, 4, runLen, t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(summaryBytes(t, got), want) {
		t.Error("summary with MaxInt64 duplicates differs from sequential build")
	}
	pieces, err := ShardSlices(xs, 4, runLen)
	if err != nil {
		t.Fatal(err)
	}
	runBothAlgos(t, pieces, cfg, want)
}

// Ragged tails: a last shard that is not run-aligned still matches the
// sequential build (interior shards are aligned by ShardSlices).
func TestBuildShardedRaggedTail(t *testing.T) {
	const runLen = 200
	cfg := core.Config{RunLen: runLen, SampleSize: 20}
	xs := datagen.Generate(datagen.NewUniform(3, 1<<40), 7*runLen+123)
	seq, err := core.BuildFromSlice(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := summaryBytes(t, seq)
	got, err := BuildSharded(shardDatasets(xs, 3, runLen, t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(summaryBytes(t, got), want) {
		t.Error("ragged-tail sharded summary differs from sequential build")
	}
}

func TestBuildShardedMoreShardsThanRuns(t *testing.T) {
	const runLen = 100
	cfg := core.Config{RunLen: runLen, SampleSize: 10}
	xs := datagen.Generate(datagen.NewUniform(7, 1<<30), 2*runLen)
	seq, err := core.BuildFromSlice(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildSharded(shardDatasets(xs, 8, runLen, t), cfg) // trailing shards are empty
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(summaryBytes(t, got), summaryBytes(t, seq)) {
		t.Error("mostly-empty shards differ from sequential build")
	}
	pieces, err := ShardSlices(xs, 8, runLen)
	if err != nil {
		t.Fatal(err)
	}
	runBothAlgos(t, pieces, cfg, summaryBytes(t, seq)) // empty ranks
}

func TestBuildShardedValidation(t *testing.T) {
	cfg := core.Config{RunLen: 100, SampleSize: 10}
	ds := []runio.Dataset[int64]{
		runio.NewMemoryDataset([]int64{1, 2, 3}, 8),
		runio.NewMemoryDataset([]int64{4, 5, 6}, 8),
		runio.NewMemoryDataset([]int64{7, 8, 9}, 8),
	}
	if _, err := BuildSharded[int64](nil, cfg); !errors.Is(err, core.ErrConfig) {
		t.Errorf("no datasets: err = %v, want ErrConfig", err)
	}
	if _, err := BuildSharded(ds, core.Config{}); !errors.Is(err, core.ErrConfig) {
		t.Errorf("bad core config: err = %v, want ErrConfig", err)
	}
}

// A failing shard fails the build, and the error names the root cause.
func TestBuildShardedLocalError(t *testing.T) {
	cfg := core.Config{RunLen: 100, SampleSize: 10}
	good := datagen.Generate(datagen.NewUniform(1, 1000), 300)
	ds := []runio.Dataset[int64]{
		runio.NewMemoryDataset(good, 8),
		&failingDataset{},
	}
	_, err := BuildSharded(ds, cfg)
	if err == nil {
		t.Fatal("expected an error from the failing shard")
	}
	if !strings.Contains(err.Error(), "shard disk on fire") {
		t.Errorf("err = %v, want only the failing shard's root cause", err)
	}
}

// failingDataset errors on scan, standing in for a broken run file.
type failingDataset struct{}

func (d *failingDataset) Count() int64       { return 100 }
func (d *failingDataset) Stats() runio.Stats { return runio.Stats{} }
func (d *failingDataset) Runs(m int) (runio.RunReader[int64], error) {
	return nil, errors.New("shard disk on fire")
}

func TestShardSlices(t *testing.T) {
	xs := make([]int64, 1050)
	for i := range xs {
		xs[i] = int64(i)
	}
	pieces, err := ShardSlices(xs, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 3 {
		t.Fatalf("got %d pieces", len(pieces))
	}
	total := 0
	for i, p := range pieces {
		if i < len(pieces)-1 && len(p)%100 != 0 {
			t.Errorf("interior shard %d has ragged length %d", i, len(p))
		}
		if total > 0 && len(p) > 0 && p[0] != int64(total) {
			t.Errorf("shard %d not contiguous: starts at %d, want %d", i, p[0], total)
		}
		total += len(p)
	}
	if total != len(xs) {
		t.Errorf("shards cover %d of %d elements", total, len(xs))
	}
	if _, err := ShardSlices(xs, 0, 100); err == nil {
		t.Error("0 shards should fail")
	}
	if _, err := ShardSlices(xs, 2, 0); err == nil {
		t.Error("0 run length should fail")
	}
}

// Shards whose runs are all shorter than one sub-run contribute zero
// samples; the global merge must handle the all-empty sample lists instead
// of panicking (regression: sampleMerge indexed an empty splitter list).
func TestBuildShardedZeroSamples(t *testing.T) {
	cfg := core.Config{RunLen: 1 << 16, SampleSize: 1 << 10}
	xs := datagen.Generate(datagen.NewUniform(3, 1000), 50) // one tiny run
	seq, err := core.BuildFromSlice(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildSharded(shardDatasets(xs, 2, 1<<16, t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != seq.N() || got.SampleCount() != 0 {
		t.Errorf("N=%d samples=%d, want N=%d samples=0", got.N(), got.SampleCount(), seq.N())
	}
	if got.Min() != seq.Min() || got.Max() != seq.Max() {
		t.Errorf("extrema [%d,%d] vs sequential [%d,%d]", got.Min(), got.Max(), seq.Min(), seq.Max())
	}
	pieces, err := ShardSlices(xs, 2, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	runBothAlgos(t, pieces, cfg, summaryBytes(t, seq))
}
