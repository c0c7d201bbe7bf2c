package parallel

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"opaq/internal/core"
	"opaq/internal/datagen"
	"opaq/internal/runio"
	"opaq/internal/simnet"
)

func testConfig(p int, algo MergeAlgo) Config {
	return Config{
		Core:  core.Config{RunLen: 1000, SampleSize: 100},
		Procs: p,
		Merge: algo,
		Model: simnet.DefaultCostModel(),
		Disk:  runio.DefaultDiskModel(),
	}
}

// shard splits xs into p equal-ish contiguous shards.
func shard(xs []int64, p int) [][]int64 {
	out := make([][]int64, p)
	per := len(xs) / p
	for i := 0; i < p; i++ {
		lo, hi := i*per, (i+1)*per
		if i == p-1 {
			hi = len(xs)
		}
		out[i] = xs[lo:hi]
	}
	return out
}

func TestValidate(t *testing.T) {
	cfg := testConfig(3, BitonicMerge) // 3 not a power of two
	if err := cfg.Validate(); err == nil {
		t.Error("bitonic with p=3 should fail validation")
	}
	cfg = testConfig(3, SampleMerge)
	if err := cfg.Validate(); err != nil {
		t.Errorf("sample merge with p=3 should be fine: %v", err)
	}
	cfg.Procs = 0
	if err := cfg.Validate(); err == nil {
		t.Error("p=0 should fail")
	}
	cfg = testConfig(2, MergeAlgo(9))
	if err := cfg.Validate(); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestRunShardMismatch(t *testing.T) {
	cfg := testConfig(2, SampleMerge)
	if _, err := Run([][]int64{{1}}, cfg); err == nil {
		t.Fatal("1 shard for 2 procs should fail")
	}
}

// Parallel OPAQ must produce the exact same sample list and bounds as the
// sequential algorithm over the concatenation (paper: parallel quantile
// phase = sequential with r·p runs) — for both merge algorithms.
func TestParallelEqualsSequential(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(3, 1_000_000), 16_000)
	cfgSeq := core.Config{RunLen: 1000, SampleSize: 100}
	seq, err := core.BuildFromSlice(xs, cfgSeq)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []MergeAlgo{BitonicMerge, SampleMerge} {
		for _, p := range []int{1, 2, 4, 8} {
			res, err := Run(shard(xs, p), testConfig(p, algo))
			if err != nil {
				t.Fatalf("%v p=%d: %v", algo, p, err)
			}
			if res.Summary.N() != seq.N() {
				t.Fatalf("%v p=%d: N=%d, want %d", algo, p, res.Summary.N(), seq.N())
			}
			if res.Summary.Runs() != seq.Runs() {
				t.Fatalf("%v p=%d: runs=%d, want %d", algo, p, res.Summary.Runs(), seq.Runs())
			}
			gs, ss := res.Summary.Samples(), seq.Samples()
			if len(gs) != len(ss) {
				t.Fatalf("%v p=%d: %d samples, want %d", algo, p, len(gs), len(ss))
			}
			for i := range gs {
				if gs[i] != ss[i] {
					t.Fatalf("%v p=%d: sample %d = %d, want %d", algo, p, i, gs[i], ss[i])
				}
			}
			for _, phi := range []float64{0.1, 0.5, 0.9} {
				bp, _ := res.Summary.Bounds(phi)
				bs, _ := seq.Bounds(phi)
				if bp.Lower != bs.Lower || bp.Upper != bs.Upper {
					t.Errorf("%v p=%d phi=%g: [%d,%d] vs sequential [%d,%d]",
						algo, p, phi, bp.Lower, bp.Upper, bs.Lower, bs.Upper)
				}
			}
		}
	}
}

func TestParallelContainmentZipf(t *testing.T) {
	xs, err := datagen.PaperDataset("zipf", 32_000, 17)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	res, err := Run(shard(xs, 8), testConfig(8, SampleMerge))
	if err != nil {
		t.Fatal(err)
	}
	for q := 1; q <= 9; q++ {
		phi := float64(q) / 10
		b, err := res.Summary.Bounds(phi)
		if err != nil {
			t.Fatal(err)
		}
		rank := int(phi * float64(len(sorted)))
		if float64(rank) < phi*float64(len(sorted)) {
			rank++
		}
		truth := sorted[rank-1]
		if b.Lower > truth || truth > b.Upper {
			t.Errorf("phi=%g: true %d outside [%d,%d]", phi, truth, b.Lower, b.Upper)
		}
	}
}

func TestRaggedShards(t *testing.T) {
	// n not divisible by p, shards not divisible by m.
	xs := datagen.Generate(datagen.NewUniform(5, 1<<40), 10_007)
	res, err := Run(shard(xs, 3), testConfig(3, SampleMerge))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.N() != 10_007 {
		t.Fatalf("N = %d", res.Summary.N())
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	b, err := res.Summary.Bounds(0.5)
	if err != nil {
		t.Fatal(err)
	}
	truth := sorted[(10_007+1)/2-1]
	if b.Lower > truth || truth > b.Upper {
		t.Errorf("median %d outside [%d,%d]", truth, b.Lower, b.Upper)
	}
}

func TestPhaseTimesPopulated(t *testing.T) {
	// Paper-shaped parameters scaled down: s = 1024 samples per run so the
	// sampling work per element (α·log₂ s ≈ 1µs) balances the modeled disk
	// (≈1µs per 8-byte element at 8 MB/s) — the Table 11 calibration.
	xs := datagen.Generate(datagen.NewUniform(7, 1<<40), 256_000)
	cfg := testConfig(4, SampleMerge)
	cfg.Core = core.Config{RunLen: 32_768, SampleSize: 1024}
	res, err := Run(shard(xs, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.IO <= 0 || res.Phases.Sampling <= 0 {
		t.Errorf("I/O and sampling phases must be positive: %+v", res.Phases)
	}
	if res.TotalTime <= 0 {
		t.Error("TotalTime must be positive")
	}
	if len(res.PerProc) != 4 {
		t.Errorf("PerProc has %d entries", len(res.PerProc))
	}
	// The paper's headline: I/O is roughly half the total (Table 11:
	// 0.40–0.57 across all sizes and processor counts).
	frac := float64(res.Phases.IO) / float64(res.Phases.Total())
	if frac < 0.30 || frac > 0.70 {
		t.Errorf("I/O fraction = %.2f, expected ≈0.5 under the default models", frac)
	}
}

func TestGlobalMergeGrowsWithP(t *testing.T) {
	// Table 12: global merge cost grows with p while I/O and sampling per
	// processor stay flat (fixed per-proc data).
	perProc := 32_000
	var g2, g8 time.Duration
	for _, p := range []int{2, 8} {
		xs := datagen.Generate(datagen.NewUniform(11, 1<<40), perProc*p)
		res, err := Run(shard(xs, p), testConfig(p, BitonicMerge))
		if err != nil {
			t.Fatal(err)
		}
		if p == 2 {
			g2 = res.Phases.GlobalMerge
		} else {
			g8 = res.Phases.GlobalMerge
		}
	}
	if g8 <= g2 {
		t.Errorf("global merge at p=8 (%v) should exceed p=2 (%v)", g8, g2)
	}
}

func TestSpeedup(t *testing.T) {
	// Figure 6 shape: fixed total data, more processors → less total time.
	xs := datagen.Generate(datagen.NewUniform(13, 1<<40), 128_000)
	var t1, t8 time.Duration
	for _, p := range []int{1, 8} {
		res, err := Run(shard(xs, p), testConfig(p, SampleMerge))
		if err != nil {
			t.Fatal(err)
		}
		if p == 1 {
			t1 = res.TotalTime
		} else {
			t8 = res.TotalTime
		}
	}
	speedup := float64(t1) / float64(t8)
	if speedup < 4 {
		t.Errorf("speedup at p=8 = %.2f, want ≥4 (near-linear per Figure 6)", speedup)
	}
}

// Property: for random data, shard counts and both algorithms, the global
// sample list equals the sequential one.
func TestQuickParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64, pRaw, algoRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		algo := MergeAlgo(int(algoRaw) % 2)
		var p int
		if algo == BitonicMerge {
			p = 1 << (pRaw % 4) // 1,2,4,8
		} else {
			p = 1 + int(pRaw)%8
		}
		// Shards must be run-aligned for bit-identical equivalence with the
		// sequential algorithm (otherwise run boundaries legitimately
		// differ); RunLen is 200 below.
		n := p * 200 * (1 + r.Intn(10))
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = r.Int63n(10_000)
		}
		cfg := Config{
			Core:  core.Config{RunLen: 200, SampleSize: 20},
			Procs: p, Merge: algo,
			Model: simnet.DefaultCostModel(),
			Disk:  runio.DefaultDiskModel(),
		}
		res, err := Run(shard(xs, p), cfg)
		if err != nil {
			return false
		}
		seq, err := core.BuildFromSlice(xs, cfg.Core)
		if err != nil {
			return false
		}
		gs, ss := res.Summary.Samples(), seq.Samples()
		if len(gs) != len(ss) {
			return false
		}
		for i := range gs {
			if gs[i] != ss[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapIOReducesTotalTime(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(7, 1<<40), 256_000)
	cfg := testConfig(4, SampleMerge)
	cfg.Core = core.Config{RunLen: 32_768, SampleSize: 1024}
	off, err := Run(shard(xs, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OverlapIO = true
	on, err := Run(shard(xs, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same bounds either way — overlap is a performance knob only.
	bOff, _ := off.Summary.Bounds(0.5)
	bOn, _ := on.Summary.Bounds(0.5)
	if bOff.Lower != bOn.Lower || bOff.Upper != bOn.Upper {
		t.Error("overlap changed the computed bounds")
	}
	// With I/O ≈ sampling (the Table 11 calibration), hiding I/O should
	// cut total time by ~40–50%.
	ratio := on.TotalTime.Seconds() / off.TotalTime.Seconds()
	if ratio > 0.75 || ratio < 0.4 {
		t.Errorf("overlap time ratio = %.2f, want ≈0.5", ratio)
	}
	if on.Phases.Total() >= off.Phases.Total() {
		t.Error("Phases.Total must honor the overlap flag")
	}
}
