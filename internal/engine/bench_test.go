package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"opaq/internal/core"
)

// raceEnabled reports a build with the race detector (see race_test.go).
var raceEnabled bool

// benchBatch is one run's worth of keys for the benchmark engines.
func benchBatch(rng *rand.Rand, n int) []int64 {
	batch := make([]int64, n)
	for i := range batch {
		batch[i] = rng.Int63n(1 << 48)
	}
	return batch
}

// BenchmarkEngineEpochRotate measures one rotation — sealing every
// stripe's completed runs into an epoch and applying retention — at
// several per-rotation data sizes. The ingest cost is excluded; the
// number reported is the seal itself (k-way sample merge + ring update).
func BenchmarkEngineEpochRotate(b *testing.B) {
	const runLen = 1 << 12
	for _, runs := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("runs=%d", runs), func(b *testing.B) {
			e, err := New[int64](Options{
				Config:    core.Config{RunLen: runLen, SampleSize: 1 << 8},
				Stripes:   4,
				Retention: Retention{Kind: RetainLastK, K: 8},
			})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			batch := benchBatch(rng, runLen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for r := 0; r < runs; r++ {
					if err := e.IngestBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				sealed, err := e.Rotate()
				if err != nil {
					b.Fatal(err)
				}
				if !sealed {
					b.Fatal("rotation sealed nothing")
				}
			}
			b.SetBytes(int64(runs * runLen * 8))
		})
	}
}

// BenchmarkEngineWindowedServe measures the windowed serving loop end to
// end: run-aligned ingest under an automatic epoch policy with last-K
// retention, with a snapshot-backed query after every batch (the
// rebuild-amortization the version cache provides is part of what is
// being measured).
func BenchmarkEngineWindowedServe(b *testing.B) {
	const runLen = 1 << 12
	e, err := New[int64](Options{
		Config:    core.Config{RunLen: runLen, SampleSize: 1 << 8},
		Stripes:   4,
		Epoch:     EpochPolicy{MaxElems: 8 * runLen},
		Retention: Retention{Kind: RetainLastK, K: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	batch := benchBatch(rng, runLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.IngestBatch(batch); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Quantile(0.5); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(runLen * 8)
}

// BenchmarkEngineCompactedServe measures what epoch compaction buys on
// the query path: a keep-all engine is pre-loaded with 1000 sealed epochs
// (one rotation per run-aligned batch), then each iteration ingests one
// element and forces a full snapshot rebuild. Uncompacted, the rebuild
// k-way-merges a 1001-entry ring every time; compacted, the ring holds
// ~log₂(1000) entries, so the fan-in — and the per-entry bookkeeping on
// every rotation and stats call — collapses.
func BenchmarkEngineCompactedServe(b *testing.B) {
	const (
		runLen = 256
		epochs = 1000
	)
	for _, compact := range []bool{false, true} {
		b.Run(fmt.Sprintf("compact=%v", compact), func(b *testing.B) {
			e, err := New[int64](Options{
				Config:     core.Config{RunLen: runLen, SampleSize: 32},
				Stripes:    1,
				Compaction: CompactionPolicy{Enabled: compact},
			})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			batch := make([]int64, runLen)
			for ep := 0; ep < epochs; ep++ {
				for i := range batch {
					batch[i] = rng.Int63n(1 << 48)
				}
				if err := e.IngestBatch(batch); err != nil {
					b.Fatal(err)
				}
				if sealed, err := e.Rotate(); err != nil || !sealed {
					b.Fatalf("epoch %d: sealed=%v err=%v", ep, sealed, err)
				}
			}
			if depth := e.Stats().Epochs; compact == (depth == epochs) {
				b.Fatalf("ring depth %d does not match compact=%v", depth, compact)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Ingest(rng.Int63n(1 << 48)); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Quantile(0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSnapshotUnderIngest is the two-level snapshot
// maintenance scenario: a keep-all, uncompacted engine is pre-loaded with
// 1000 sealed epochs, then each iteration ingests one element (bumping
// the version) and immediately queries, forcing a snapshot rebuild per
// cycle. The full-remerge baseline (DisableFrozenPrefix) k-way-merges the
// 1001-entry merge set every time; the two-level path merges only the
// stripe tail and folds it into the cached frozen prefix with one linear
// copy. The ratio of the two throughputs is the headline speedup the
// snapshot benchtab experiment persists.
func BenchmarkEngineSnapshotUnderIngest(b *testing.B) {
	const (
		runLen = 256
		epochs = 1000
	)
	for _, mode := range []struct {
		name string
		full bool
	}{{"full-remerge", true}, {"two-level", false}} {
		b.Run("mode="+mode.name, func(b *testing.B) {
			e, err := New[int64](Options{
				Config:              core.Config{RunLen: runLen, SampleSize: 32},
				Stripes:             1,
				DisableFrozenPrefix: mode.full,
			})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4))
			batch := make([]int64, runLen)
			for ep := 0; ep < epochs; ep++ {
				for i := range batch {
					batch[i] = rng.Int63n(1 << 48)
				}
				if err := e.IngestBatch(batch); err != nil {
					b.Fatal(err)
				}
				if sealed, err := e.Rotate(); err != nil || !sealed {
					b.Fatalf("epoch %d: sealed=%v err=%v", ep, sealed, err)
				}
			}
			// One warm-up cycle performs the cold prefix merge (two-level)
			// and borrows the stripe's run buffer, so the loop measures the
			// steady state in both modes.
			if err := e.Ingest(rng.Int63n(1 << 48)); err != nil {
				b.Fatal(err)
			}
			if _, err := e.Quantile(0.5); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Ingest(rng.Int63n(1 << 48)); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Quantile(0.5); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := e.Stats()
			if mode.full && (st.PrefixHits != 0 || st.PrefixRebuilds != 0) {
				b.Fatalf("baseline engine touched the prefix cache: %+v", st)
			}
			if !mode.full && st.PrefixHits == 0 {
				b.Fatalf("two-level engine never hit the prefix cache: %+v", st)
			}
		})
	}
}

// TestTwoLevelServeAllocs extends the rebuild allocation bound to the
// two-level snapshot path: on a deep UNcompacted ring, the steady-state
// ingest+query loop must stay within the same allocation budget as the
// compacted loop (the tail fold allocates a fixed number of lists against
// the cached frozen prefix), and — the regression this test exists to
// catch — the frozen prefix must NOT be silently re-merged per query:
// every rebuild in the loop is a prefix HIT, and the rebuild counter
// stays flat.
func TestTwoLevelServeAllocs(t *testing.T) {
	const runLen = 256
	e, err := New[int64](Options{
		Config:  core.Config{RunLen: runLen, SampleSize: 32},
		Stripes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	batch := make([]int64, runLen)
	for ep := 0; ep < 256; ep++ {
		for i := range batch {
			batch[i] = rng.Int63n(1 << 48)
		}
		if err := e.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		if sealed, err := e.Rotate(); err != nil || !sealed {
			t.Fatalf("epoch %d: sealed=%v err=%v", ep, sealed, err)
		}
	}
	// Warm the pools and the prefix cache: the first rebuild after the
	// last rotation performs the one expected cold prefix merge.
	for i := 0; i < 8; i++ {
		if err := e.Ingest(rng.Int63n(1 << 48)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Quantile(0.5); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() {
		if err := e.Ingest(rng.Int63n(1 << 48)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Quantile(0.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("two-level serve loop: %.1f allocs/op, want ≤ 64 (allocating per epoch or per sample, or prefix re-merged per query?)", allocs)
	}
	after := e.Stats()
	if after.PrefixRebuilds != before.PrefixRebuilds {
		t.Fatalf("frozen prefix re-merged %d times during steady-state ingest (no ring change happened); every rebuild must be a cache hit",
			after.PrefixRebuilds-before.PrefixRebuilds)
	}
	if hits := after.PrefixHits - before.PrefixHits; hits < runs {
		t.Fatalf("prefix hits grew by %d over %d rebuilding queries", hits, runs)
	}
	if full := after.Merges - after.PrefixHits - after.PrefixRebuilds; full != 0 {
		t.Fatalf("%d full-remerge rebuilds on a two-level engine", full)
	}
}

// TestCompactedServeAllocs pins the allocation count of the compacted
// serving loop — one ingest plus one snapshot-rebuilding query — so a
// regression that allocates per epoch or per sample fails loudly rather
// than showing up only in benchmark output. The measured steady state is
// 11 allocs/op (the merged lists and snapshot, which are per-rebuild by
// design); the threshold leaves headroom for toolchain drift.
func TestCompactedServeAllocs(t *testing.T) {
	const runLen = 256
	e, err := New[int64](Options{
		Config:     core.Config{RunLen: runLen, SampleSize: 32},
		Stripes:    1,
		Compaction: CompactionPolicy{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	batch := make([]int64, runLen)
	for ep := 0; ep < 64; ep++ {
		for i := range batch {
			batch[i] = rng.Int63n(1 << 48)
		}
		if err := e.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		if sealed, err := e.Rotate(); err != nil || !sealed {
			t.Fatalf("epoch %d: sealed=%v err=%v", ep, sealed, err)
		}
	}
	// Warm up: the first rebuilds borrow the stripe's run buffer.
	for i := 0; i < 8; i++ {
		if err := e.Ingest(rng.Int63n(1 << 48)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Quantile(0.5); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.Ingest(rng.Int63n(1 << 48)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Quantile(0.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("compacted serve loop: %.1f allocs/op, want ≤ 64 (allocating per epoch or per sample?)", allocs)
	}
}

// ingestRunOptions are the options of the end-to-end benchmark's `ingest`
// tenant: the fleet's worker defaults (int64 keys, m = 65 536, s = 1 024,
// 2 stripes, compaction) with the tenant's own epoch every 1<<18 keys and
// the last 4 epochs retained.
var ingestRunOptions = Options{
	Config:     core.Config{RunLen: 1 << 16, SampleSize: 1 << 10},
	Stripes:    2,
	Epoch:      EpochPolicy{MaxElems: 1 << 18},
	Retention:  Retention{Kind: RetainLastK, K: 4},
	Compaction: CompactionPolicy{Enabled: true},
}

// TestIngestRunBorrowsRunMemory pins where the memory of a whole-run
// IngestBatch comes from. The stripe borrows its run buffer and the
// flush's sampling scratch from runio's run pool and gives both back, so
// once the pool is warm a call allocates the run's sample list and its
// share of seals and compactions, well under one run. A stripe that made
// either buffer per flush would allocate at least one run per call.
func TestIngestRunBorrowsRunMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	e, err := New[int64](ingestRunOptions)
	if err != nil {
		t.Fatal(err)
	}
	runLen := ingestRunOptions.Config.RunLen
	batch := benchBatch(rand.New(rand.NewSource(9)), runLen)
	ingest := func(calls int) {
		for i := 0; i < calls; i++ {
			if err := e.IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(16) // warm the pools and fill the ring
	const calls = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ingest(calls)
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	runBytes := float64(runLen * 8)
	if perCall > runBytes/4 {
		t.Fatalf("IngestBatch of one run allocated %.0f B/call, want ≤ %.0f (a quarter run): run memory no longer borrowed from the pool?",
			perCall, runBytes/4)
	}
}

// BenchmarkEngineIngestRun measures one IngestBatch of a 65 536-key
// uniform run on the `ingest` tenant's options: the run lands in one
// stripe and fills its buffer, and every fourth call makes an epoch seal
// due. "return" times the call alone, which is what a caller waits for:
// it returns once the run is buffered and counted, and the run's
// sampling and the seal run after it, overlapping the next iterations.
// "settled" ends each iteration by waiting for that work (settleAll), so
// it times the whole per-run cost: the copy, the run's flush, sampling
// and fold, and every fourth iteration's seal and compaction. B/op shows
// the run memory is borrowed, not allocated.
func BenchmarkEngineIngestRun(b *testing.B) {
	for _, settled := range []bool{false, true} {
		name := "return"
		if settled {
			name = "settled"
		}
		b.Run(name, func(b *testing.B) {
			e, err := New[int64](ingestRunOptions)
			if err != nil {
				b.Fatal(err)
			}
			runLen := ingestRunOptions.Config.RunLen
			batch := benchBatch(rand.New(rand.NewSource(10)), runLen)
			b.ReportAllocs()
			b.SetBytes(int64(runLen * 8))
			for i := 0; i < b.N; i++ {
				if err := e.IngestBatch(batch); err != nil {
					b.Fatal(err)
				}
				if settled {
					if err := settleAll(e); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// settleAll waits for the work the engine's ingests left for after their
// return: it settles every stripe, waiting for a settle in flight, and
// then for a seal in flight.
func settleAll(e *Engine[int64]) error {
	for _, st := range e.stripes {
		st.mu.Lock()
		err := st.sb.Settle()
		st.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return e.waitSealErr()
}

// BenchmarkEngineReadAfterWrite measures a read that follows a write on
// a keep-all engine with the end-to-end fleet's run shape (int64 keys,
// m = 65,536, s = 1,024, 2 stripes): uniform keys are preloaded one run
// per batch, then each iteration ingests 512 keys and asks for the
// median, so every read rebuilds the snapshot. With no seal trigger, the
// product default, every preloaded run stays in its stripe and each
// rebuild re-merges them all; one Rotate after the preload seals them
// into the frozen prefix instead. Either way each rebuild also selects
// the stripes' partial runs, which grow by 512 keys per iteration.
func BenchmarkEngineReadAfterWrite(b *testing.B) {
	const runLen = 1 << 16
	for _, preload := range []int{1 << 20, 8 << 20} {
		for _, seal := range []bool{false, true} {
			name := fmt.Sprintf("keys=%dMi/seal=none", preload>>20)
			if seal {
				name = fmt.Sprintf("keys=%dMi/seal=once", preload>>20)
			}
			b.Run(name, func(b *testing.B) {
				e, err := New[int64](Options{
					Config:  core.Config{RunLen: runLen, SampleSize: 1 << 10},
					Stripes: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(11))
				for range preload / runLen {
					if err := e.IngestBatch(benchBatch(rng, runLen)); err != nil {
						b.Fatal(err)
					}
				}
				if seal {
					if sealed, err := e.Rotate(); err != nil || !sealed {
						b.Fatalf("sealed=%v err=%v", sealed, err)
					}
				}
				keys := benchBatch(rng, runLen)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					at := i * 512 % runLen
					if err := e.IngestBatch(keys[at : at+512]); err != nil {
						b.Fatal(err)
					}
					if _, err := e.Quantile(0.5); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRegistryServe measures the multi-tenant hot path: concurrent
// goroutines resolving tenants through the registry and hitting their
// engines with a mixed ingest/query load across 8 tenants.
func BenchmarkRegistryServe(b *testing.B) {
	reg, err := NewRegistry(RegistryOptions[int64]{
		Defaults: Options{
			Config:  core.Config{RunLen: 1 << 12, SampleSize: 1 << 8},
			Stripes: 2,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	const tenantCount = 8
	names := make([]string, tenantCount)
	for i := range names {
		names[i] = fmt.Sprintf("col%d", i)
		eng, err := reg.Create(names[i], nil)
		if err != nil {
			b.Fatal(err)
		}
		// Warm every tenant so queries have something to answer.
		if err := eng.IngestBatch(benchBatch(rand.New(rand.NewSource(int64(i))), 1<<12)); err != nil {
			b.Fatal(err)
		}
	}
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(ctr.Add(1)))
		batch := benchBatch(rng, 64)
		for pb.Next() {
			eng, err := reg.Get(names[rng.Intn(tenantCount)])
			if err != nil {
				b.Fatal(err)
			}
			if rng.Intn(4) == 0 {
				if err := eng.IngestBatch(batch); err != nil {
					b.Fatal(err)
				}
			} else if _, err := eng.Quantile(1 - rng.Float64()); err != nil { // (0, 1]
				b.Fatal(err)
			}
		}
	})
}
