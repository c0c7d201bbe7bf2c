package engine

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opaq/internal/core"
	"opaq/internal/runio"
)

// The compaction equivalence harness. Compaction's whole contract is
// "answers never change": the buddy merge reshapes the epoch ring but the
// merged snapshot — and therefore every quantile, rank and selectivity
// result and every checkpoint byte — must be indistinguishable from an
// engine that never compacted. The harness drives a compacting engine and
// a shadow uncompacted engine through identical randomized schedules of
// ingest / rotate / explicit-compact / checkpoint→restore operations,
// with concurrent queriers hammering both (so -race sees ring swaps racing
// reads), and at every quiesce point asserts byte-identical behavior.

// equivPair is the engine under test plus its shadow. The engines are
// held behind atomic pointers because a checkpoint→restore schedule op
// replaces them mid-run while queriers keep reading.
type equivPair struct {
	comp atomic.Pointer[Engine[int64]]
	shad atomic.Pointer[Engine[int64]]
}

// equivOptions returns the shared configuration; withCompaction adds the
// policy under test.
func equivOptions(withCompaction bool) Options {
	opts := Options{
		Config:  core.Config{RunLen: 64, SampleSize: 8},
		Stripes: 2,
	}
	if withCompaction {
		opts.Compaction = CompactionPolicy{Enabled: true}
	}
	return opts
}

// checkpointBytes cuts a checkpoint into memory.
func checkpointBytes(t *testing.T, e *Engine[int64]) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf, runio.Int64Codec{}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// compareEngines is one quiesce point: every observable answer of the
// compacting engine must be byte-identical to the shadow's, and the
// compacted ring must obey the logarithmic depth bound.
func compareEngines(t *testing.T, comp, shad *Engine[int64], rng *rand.Rand) {
	t.Helper()
	if cn, sn := comp.N(), shad.N(); cn != sn {
		t.Fatalf("lifetime N diverged: compacted %d, shadow %d", cn, sn)
	}
	ckC, ckS := checkpointBytes(t, comp), checkpointBytes(t, shad)
	if !bytes.Equal(ckC, ckS) {
		t.Fatal("checkpoint bytes diverged between compacted and shadow engines")
	}
	if comp.N() == 0 {
		return
	}
	qc, errC := comp.Quantiles(16)
	qs, errS := shad.Quantiles(16)
	if errC != nil || errS != nil {
		t.Fatalf("Quantiles: compacted %v, shadow %v", errC, errS)
	}
	if !reflect.DeepEqual(qc, qs) {
		t.Fatalf("quantile enclosures diverged:\ncompacted %+v\nshadow    %+v", qc, qs)
	}
	snap, err := comp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := snap.Summary.Min(), snap.Summary.Max()
	probes := []int64{lo, hi, lo + (hi-lo)/2}
	for i := 0; i < 5; i++ {
		probes = append(probes, lo+rng.Int63n(max(hi-lo, 1)+1))
	}
	for _, x := range probes {
		cl, ch, err := comp.RankBounds(x)
		if err != nil {
			t.Fatal(err)
		}
		sl, sh, err := shad.RankBounds(x)
		if err != nil {
			t.Fatal(err)
		}
		if cl != sl || ch != sh {
			t.Fatalf("RankBounds(%d) diverged: compacted [%d,%d], shadow [%d,%d]", x, cl, ch, sl, sh)
		}
	}
	for i := 0; i < 5; i++ {
		a := lo + rng.Int63n(max(hi-lo, 1)+1)
		b := a + rng.Int63n(max(hi-a, 1)+1)
		cSel, cEst, cErr, err := comp.RangeEstimate(a, b)
		if err != nil {
			t.Fatal(err)
		}
		sSel, sEst, sErr, err := shad.RangeEstimate(a, b)
		if err != nil {
			t.Fatal(err)
		}
		// Identical summaries make these float-for-float identical, not
		// merely close.
		if cSel != sSel || cEst != sEst || cErr != sErr {
			t.Fatalf("RangeEstimate(%d,%d) diverged: compacted (%g,%g,%g), shadow (%g,%g,%g)",
				a, b, cSel, cEst, cErr, sSel, sEst, sErr)
		}
	}
	// The compacted ring must stay logarithmic in the data it covers;
	// tiers strictly decrease oldest→newest at the buddy fixpoint, so
	// depth ≤ log₂(N)+2 even for ragged seal sizes.
	if depth, limit := comp.Stats().Epochs, bits.Len64(uint64(comp.N()))+2; depth > limit {
		t.Fatalf("compacted ring depth %d exceeds log bound %d at N=%d", depth, limit, comp.N())
	}
}

// spawnQueriers starts background readers against whatever engine the
// pointer currently holds, returning a stop function. They assert nothing
// about values — their job is to race snapshot rebuilds, ring swaps and
// stats reads against the schedule under -race.
func spawnQueriers(p *atomic.Pointer[Engine[int64]], n int, seed int64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < n; q++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				e := p.Load()
				_, _ = e.Quantile(1 - rng.Float64()) // (0, 1]
				_, _, _ = e.RankBounds(rng.Int63n(1 << 40))
				_, _, _, _ = e.RangeEstimate(0, rng.Int63n(1<<40))
				_ = e.Stats()
				_ = e.Epochs()
			}
		}(seed + int64(q))
	}
	return func() { close(done); wg.Wait() }
}

// TestCompactionEquivalenceRandomSchedules is the headline harness: for
// several seeds, a randomized schedule of ingest (ragged and run-aligned
// batches), rotations, explicit compactions and full checkpoint→restore
// engine replacements runs against both engines of a pair, under
// concurrent queriers, with byte-identity asserted at every quiesce point
// and once more at the end.
func TestCompactionEquivalenceRandomSchedules(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			var pair equivPair
			comp, err := New[int64](equivOptions(true))
			if err != nil {
				t.Fatal(err)
			}
			shad, err := New[int64](equivOptions(false))
			if err != nil {
				t.Fatal(err)
			}
			pair.comp.Store(comp)
			pair.shad.Store(shad)
			stopC := spawnQueriers(&pair.comp, 2, seed*100+1)
			stopS := spawnQueriers(&pair.shad, 2, seed*100+50)
			defer stopC()
			defer stopS()

			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 150; op++ {
				comp, shad := pair.comp.Load(), pair.shad.Load()
				switch k := rng.Intn(12); {
				case k < 6: // ingest one batch, usually ragged
					size := 1 + rng.Intn(96)
					if rng.Intn(3) == 0 {
						size = 64 // run-aligned
					}
					batch := make([]int64, size)
					for i := range batch {
						batch[i] = rng.Int63n(1 << 40)
					}
					if err := comp.IngestBatch(batch); err != nil {
						t.Fatal(err)
					}
					if err := shad.IngestBatch(batch); err != nil {
						t.Fatal(err)
					}
				case k < 8: // rotate both
					if _, err := comp.Rotate(); err != nil {
						t.Fatal(err)
					}
					if _, err := shad.Rotate(); err != nil {
						t.Fatal(err)
					}
				case k == 8: // explicit compact (the shadow never compacts)
					if _, err := comp.Compact(); err != nil {
						t.Fatal(err)
					}
				case k == 9: // checkpoint → restore into fresh engines
					ckC, ckS := checkpointBytes(t, comp), checkpointBytes(t, shad)
					if !bytes.Equal(ckC, ckS) {
						t.Fatal("checkpoint bytes diverged at restore op")
					}
					newC, err := New[int64](equivOptions(true))
					if err != nil {
						t.Fatal(err)
					}
					newS, err := New[int64](equivOptions(false))
					if err != nil {
						t.Fatal(err)
					}
					if err := newC.Restore(bytes.NewReader(ckC), runio.Int64Codec{}); err != nil {
						t.Fatal(err)
					}
					if err := newS.Restore(bytes.NewReader(ckS), runio.Int64Codec{}); err != nil {
						t.Fatal(err)
					}
					pair.comp.Store(newC)
					pair.shad.Store(newS)
				default: // quiesce point
					compareEngines(t, comp, shad, rng)
				}
			}
			compareEngines(t, pair.comp.Load(), pair.shad.Load(), rng)
			if st := pair.comp.Load().Stats(); st.Compactions == 0 && pair.comp.Load().N() > 0 {
				// The schedule must actually exercise compaction; with 150
				// ops and rotations every ~6 ops this never triggers
				// spuriously. (Restore-replacement can reset counters near
				// the very end, hence the lifetime check on the final pair
				// only guards non-trivial runs.)
				t.Log("final engine never compacted (restored late in the schedule); acceptable")
			}
		})
	}
}

// prefixEquivOptions configures one engine of a prefix-cache equivalence
// pair: the engines differ ONLY in DisableFrozenPrefix. Automatic
// compaction stays off on both so the rings evolve through the
// deterministic schedule alone (the rebuild-path compaction pass is
// querier-timing-dependent and would let last-K eviction granularity
// diverge between the pair); explicit Compact ops in the schedule hit
// both engines identically. Last-K retention makes eviction — one of the
// prefix invalidation events under test — actually fire.
func prefixEquivOptions(shadow bool) Options {
	return Options{
		Config:              core.Config{RunLen: 64, SampleSize: 8},
		Stripes:             2,
		Retention:           Retention{Kind: RetainLastK, K: 6},
		DisableFrozenPrefix: shadow,
	}
}

// TestPrefixCacheEquivalenceRandomSchedules is the two-level snapshot
// harness: a frozen-prefix engine and a full-remerge shadow
// (DisableFrozenPrefix) run identical randomized schedules covering every
// prefix invalidation event — rotation (with last-K eviction), explicit
// compaction swaps, restore-absorb into a live engine, and full
// checkpoint→replace — interleaved with queries, while background
// queriers race the cache under -race. Checkpoints must stay
// byte-identical and answers float-identical at every quiesce point: the
// cached prefix fold and the single k-way remerge are the same merge over
// a different tree shape.
func TestPrefixCacheEquivalenceRandomSchedules(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			var pair equivPair
			cached, err := New[int64](prefixEquivOptions(false))
			if err != nil {
				t.Fatal(err)
			}
			shad, err := New[int64](prefixEquivOptions(true))
			if err != nil {
				t.Fatal(err)
			}
			pair.comp.Store(cached)
			pair.shad.Store(shad)
			stopC := spawnQueriers(&pair.comp, 2, seed*200+1)
			stopS := spawnQueriers(&pair.shad, 2, seed*200+50)
			defer stopC()
			defer stopS()

			rng := rand.New(rand.NewSource(seed * 31))
			// A replace op swaps in fresh engines with zeroed counters, so
			// cache usage is accumulated across every engine generation.
			var hits, rebuilds, shadowTouches int64
			for op := 0; op < 150; op++ {
				cached, shad := pair.comp.Load(), pair.shad.Load()
				switch k := rng.Intn(12); {
				case k < 6: // ingest one batch, usually ragged
					size := 1 + rng.Intn(96)
					if rng.Intn(3) == 0 {
						size = 64 // run-aligned
					}
					batch := make([]int64, size)
					for i := range batch {
						batch[i] = rng.Int63n(1 << 40)
					}
					if err := cached.IngestBatch(batch); err != nil {
						t.Fatal(err)
					}
					if err := shad.IngestBatch(batch); err != nil {
						t.Fatal(err)
					}
				case k < 8: // rotate both (seal + last-K eviction)
					if _, err := cached.Rotate(); err != nil {
						t.Fatal(err)
					}
					if _, err := shad.Rotate(); err != nil {
						t.Fatal(err)
					}
				case k == 8: // compaction swap on both — same deterministic plan
					if _, err := cached.Compact(); err != nil {
						t.Fatal(err)
					}
					if _, err := shad.Compact(); err != nil {
						t.Fatal(err)
					}
				case k == 9: // restore-absorb INTO the live engines (prefix
					// invalidation without replacing the engine)
					ckC, ckS := checkpointBytes(t, cached), checkpointBytes(t, shad)
					if !bytes.Equal(ckC, ckS) {
						t.Fatal("checkpoint bytes diverged at absorb op")
					}
					if err := cached.Restore(bytes.NewReader(ckC), runio.Int64Codec{}); err != nil {
						t.Fatal(err)
					}
					if err := shad.Restore(bytes.NewReader(ckS), runio.Int64Codec{}); err != nil {
						t.Fatal(err)
					}
				case k == 10: // checkpoint → replace with fresh engines
					ckC, ckS := checkpointBytes(t, cached), checkpointBytes(t, shad)
					if !bytes.Equal(ckC, ckS) {
						t.Fatal("checkpoint bytes diverged at replace op")
					}
					newC, err := New[int64](prefixEquivOptions(false))
					if err != nil {
						t.Fatal(err)
					}
					newS, err := New[int64](prefixEquivOptions(true))
					if err != nil {
						t.Fatal(err)
					}
					if err := newC.Restore(bytes.NewReader(ckC), runio.Int64Codec{}); err != nil {
						t.Fatal(err)
					}
					if err := newS.Restore(bytes.NewReader(ckS), runio.Int64Codec{}); err != nil {
						t.Fatal(err)
					}
					st := cached.Stats()
					hits += st.PrefixHits
					rebuilds += st.PrefixRebuilds
					sst := shad.Stats()
					shadowTouches += sst.PrefixHits + sst.PrefixRebuilds
					pair.comp.Store(newC)
					pair.shad.Store(newS)
				default: // quiesce point
					compareEngines(t, cached, shad, rng)
				}
			}
			compareEngines(t, pair.comp.Load(), pair.shad.Load(), rng)
			// The harness must actually exercise both levels of the cache,
			// and the shadow must never touch it.
			st := pair.comp.Load().Stats()
			hits += st.PrefixHits
			rebuilds += st.PrefixRebuilds
			sst := pair.shad.Load().Stats()
			shadowTouches += sst.PrefixHits + sst.PrefixRebuilds
			if hits == 0 || rebuilds == 0 {
				t.Errorf("prefix cache not exercised: %d hits, %d rebuilds", hits, rebuilds)
			}
			if shadowTouches != 0 {
				t.Errorf("shadow engines touched the prefix cache %d times", shadowTouches)
			}
		})
	}
}

// TestTwoLevelTailMergeCounters is the counter-based regression guard on
// the two-level rebuild path, in the style of the snapshot-cache test: a
// version-missed query after any number of plain ingests performs exactly
// one rebuild that HITS the cached prefix (one tail merge, no prefix
// re-merge); a version-matched query performs none; and only genuine ring
// changes — rotation, compaction swap — provoke a cold prefix rebuild.
func TestTwoLevelTailMergeCounters(t *testing.T) {
	e, err := New[int64](Options{
		Config:  core.Config{RunLen: 64, SampleSize: 8},
		Stripes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	batch := make([]int64, 64)
	for ep := 0; ep < 8; ep++ {
		for i := range batch {
			batch[i] = rng.Int63n(1 << 40)
		}
		if err := e.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		if sealed, err := e.Rotate(); err != nil || !sealed {
			t.Fatalf("epoch %d: sealed=%v err=%v", ep, sealed, err)
		}
	}
	if _, err := e.Quantile(0.5); err != nil { // cold: ring changed since construction
		t.Fatal(err)
	}
	st := e.Stats()
	if st.PrefixRebuilds != 1 {
		t.Fatalf("first query after seals: %d prefix rebuilds, want 1", st.PrefixRebuilds)
	}

	// N plain ingests, then one query: exactly one rebuild, and it must
	// reuse the frozen prefix (tail-only merge).
	for i := 0; i < 25; i++ {
		if err := e.Ingest(rng.Int63n(1 << 40)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Quantile(0.5); err != nil {
		t.Fatal(err)
	}
	now := e.Stats()
	if got, want := now.Merges, st.Merges+1; got != want {
		t.Fatalf("query after 25 ingests: %d merges, want %d (single-flight, one rebuild)", got, want)
	}
	if got, want := now.PrefixHits, st.PrefixHits+1; got != want {
		t.Fatalf("query after 25 ingests: %d prefix hits, want %d", got, want)
	}
	if now.PrefixRebuilds != st.PrefixRebuilds {
		t.Fatalf("plain ingest provoked a cold prefix rebuild (%d → %d)", st.PrefixRebuilds, now.PrefixRebuilds)
	}

	// Version-matched queries touch nothing.
	st = now
	for i := 0; i < 50; i++ {
		if _, err := e.Quantile(0.25); err != nil {
			t.Fatal(err)
		}
	}
	if now = e.Stats(); now.Merges != st.Merges || now.PrefixHits != st.PrefixHits {
		t.Fatalf("version-matched queries rebuilt: merges %d→%d, hits %d→%d", st.Merges, now.Merges, st.PrefixHits, now.PrefixHits)
	}

	// A rotation publishes a new ring: the next rebuild re-merges the
	// prefix cold, exactly once.
	if err := e.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	if sealed, err := e.Rotate(); err != nil || !sealed {
		t.Fatalf("sealed=%v err=%v", sealed, err)
	}
	if _, err := e.Quantile(0.5); err != nil {
		t.Fatal(err)
	}
	if now = e.Stats(); now.PrefixRebuilds != st.PrefixRebuilds+1 {
		t.Fatalf("query after rotation: %d prefix rebuilds, want %d", now.PrefixRebuilds, st.PrefixRebuilds+1)
	}

	// A compaction swap does NOT bump the version — the cached snapshot
	// stays valid and no rebuild happens — but it does invalidate the
	// prefix, so the next version-missed query re-merges it cold.
	st = e.Stats()
	if changed, err := e.Compact(); err != nil || !changed {
		t.Fatalf("compact: changed=%v err=%v", changed, err)
	}
	if _, err := e.Quantile(0.5); err != nil {
		t.Fatal(err)
	}
	if now = e.Stats(); now.Merges != st.Merges {
		t.Fatalf("compaction swap provoked a rebuild: merges %d→%d (cached snapshot should have served)", st.Merges, now.Merges)
	}
	if err := e.Ingest(rng.Int63n(1 << 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Quantile(0.5); err != nil {
		t.Fatal(err)
	}
	if now = e.Stats(); now.PrefixRebuilds != st.PrefixRebuilds+1 {
		t.Fatalf("query after compaction swap: %d prefix rebuilds, want %d", now.PrefixRebuilds, st.PrefixRebuilds+1)
	}
}

// TestCompactionRingDepthLogBound is the acceptance criterion in
// isolation: a keep-all engine under continuous rotation — one seal per
// run-aligned batch, 1200 seals — holds its ring at ≤ log₂(#seals)+1
// entries the whole way, while the shadow uncompacted engine's ring grows
// linearly; final answers stay byte-identical.
func TestCompactionRingDepthLogBound(t *testing.T) {
	opts := equivOptions(true)
	opts.Stripes = 1
	comp, err := New[int64](opts)
	if err != nil {
		t.Fatal(err)
	}
	shadOpts := equivOptions(false)
	shadOpts.Stripes = 1
	shad, err := New[int64](shadOpts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	batch := make([]int64, opts.Config.RunLen)
	const seals = 1200
	for s := 1; s <= seals; s++ {
		for i := range batch {
			batch[i] = rng.Int63n(1 << 40)
		}
		for _, e := range []*Engine[int64]{comp, shad} {
			if err := e.IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
			if sealed, err := e.Rotate(); err != nil || !sealed {
				t.Fatalf("seal %d: sealed=%v err=%v", s, sealed, err)
			}
		}
		if depth, limit := comp.Stats().Epochs, bits.Len(uint(s))+1; depth > limit {
			t.Fatalf("after %d seals: ring depth %d exceeds log bound %d", s, depth, limit)
		}
	}
	st := comp.Stats()
	if st.SealedEpochs != seals {
		t.Fatalf("sealed %d epochs, want %d", st.SealedEpochs, seals)
	}
	if st.Compactions == 0 || st.CompactedEpochs == 0 {
		t.Fatalf("compaction never ran: %+v", st)
	}
	if shadowDepth := shad.Stats().Epochs; shadowDepth != seals {
		t.Fatalf("shadow ring depth %d, want %d (must stay uncompacted)", shadowDepth, seals)
	}
	if !bytes.Equal(checkpointBytes(t, comp), checkpointBytes(t, shad)) {
		t.Fatal("checkpoint bytes diverged after 1200 compacted seals")
	}
}

// TestCompactionMinEpochsFloor pins CompactionPolicy.MinEpochs, the
// floor `opaq serve -compact-min` sets: automatic compaction, after seals
// and on snapshot rebuilds, leaves a ring of at most MinEpochs entries
// alone, compacts once a seal takes the ring past the floor, and an
// explicit Compact ignores the floor. Every answer and checkpoint byte
// stays identical to an uncompacted shadow's throughout.
func TestCompactionMinEpochsFloor(t *testing.T) {
	const floor = 6
	opts := equivOptions(true)
	opts.Stripes = 1 // run-aligned batches seal one epoch of one run each
	opts.Compaction.MinEpochs = floor
	comp, err := New[int64](opts)
	if err != nil {
		t.Fatal(err)
	}
	shadOpts := equivOptions(false)
	shadOpts.Stripes = 1
	shad, err := New[int64](shadOpts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	batch := make([]int64, opts.Config.RunLen)
	seal := func() {
		t.Helper()
		for i := range batch {
			batch[i] = rng.Int63n(1 << 40)
		}
		for _, e := range []*Engine[int64]{comp, shad} {
			if err := e.IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
			if sealed, err := e.Rotate(); err != nil || !sealed {
				t.Fatalf("sealed=%v err=%v", sealed, err)
			}
		}
	}
	for s := 1; s <= floor; s++ {
		seal()
		compareEngines(t, comp, shad, rng)
		if st := comp.Stats(); st.Epochs != s || st.Compactions != 0 {
			t.Fatalf("after %d seals under a floor of %d: ring depth %d after %d compactions, want %d and none",
				s, floor, st.Epochs, st.Compactions, s)
		}
	}
	// Seven one-run epochs pass the floor and buddy-merge to 4 + 2 + 1.
	seal()
	compareEngines(t, comp, shad, rng)
	if st := comp.Stats(); st.Epochs != 3 || st.Compactions == 0 {
		t.Fatalf("past the floor: ring depth %d after %d compactions, want 3 after at least one", st.Epochs, st.Compactions)
	}
	// One more seal leaves four entries, under the floor again, so they
	// stay until an explicit Compact merges them into one of 8 runs.
	seal()
	compareEngines(t, comp, shad, rng)
	if depth := comp.Stats().Epochs; depth != 4 {
		t.Fatalf("back under the floor: ring depth %d, want 4", depth)
	}
	if changed, err := comp.Compact(); err != nil || !changed {
		t.Fatalf("explicit Compact under the floor: changed=%v err=%v", changed, err)
	}
	if depth := comp.Stats().Epochs; depth != 1 {
		t.Fatalf("explicit Compact: ring depth %d, want 1", depth)
	}
	compareEngines(t, comp, shad, rng)
}

// TestCompactionRetentionGate pins the over-retention bound: merged
// spans are capped at half the retention window, so a windowed engine
// with compaction retains at most 1.5× what the policy promises.
func TestCompactionRetentionGate(t *testing.T) {
	t.Run("last-K", func(t *testing.T) {
		const runLen, K = 32, 8
		e, err := New[int64](Options{
			Config:     core.Config{RunLen: runLen, SampleSize: 4},
			Stripes:    1,
			Retention:  Retention{Kind: RetainLastK, K: K},
			Compaction: CompactionPolicy{Enabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]int64, runLen)
		for s := 0; s < 50; s++ {
			for i := range batch {
				batch[i] = int64(s*runLen + i)
			}
			if err := e.IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
			if sealed, err := e.Rotate(); err != nil || !sealed {
				t.Fatalf("seal %d: sealed=%v err=%v", s, sealed, err)
			}
			var seals int64
			for _, ep := range e.Epochs() {
				if ep.Seals > K/2 {
					t.Fatalf("seal %d: entry spans %d seals, gate caps at %d", s, ep.Seals, K/2)
				}
				seals += ep.Seals
			}
			if limit := int64(K + K/2); seals > limit {
				t.Fatalf("seal %d: ring covers %d seals, over-retention bound is %d (1.5K)", s, seals, limit)
			}
			if s >= K && seals < K {
				t.Fatalf("seal %d: ring covers %d seals, window promises %d", s, seals, K)
			}
		}
		if e.Stats().Compactions == 0 {
			t.Fatal("gate is vacuous: compaction never ran")
		}
	})
	t.Run("max-age", func(t *testing.T) {
		// The time gate is evaluated against synthetic spans directly:
		// wall-clock-driven seals cannot set controlled ages in a test.
		e, err := New[int64](Options{
			Config:    core.Config{RunLen: 32, SampleSize: 4},
			Stripes:   1,
			Retention: Retention{Kind: RetainMaxAge, MaxAge: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		gate := e.compactGate()
		if gate == nil {
			t.Fatal("RetainMaxAge engine has no compaction gate")
		}
		t0 := time.Unix(0, 0)
		span := func(first, last time.Duration) epochMeta {
			return epochMeta{n: 32, seals: 1, first: t0.Add(first), last: t0.Add(last)}
		}
		if !gate(span(0, 10*time.Minute), span(10*time.Minute, 25*time.Minute)) {
			t.Fatal("25min merged span vetoed under a 1h window (cap is 30min)")
		}
		if gate(span(0, 20*time.Minute), span(20*time.Minute, 40*time.Minute)) {
			t.Fatal("40min merged span allowed under a 1h window (cap is 30min)")
		}
	})
}

// TestCompactionWithEvictionServesRetainedWindow exercises the
// evict/compact interplay: a last-K engine with compaction enabled serves
// a window whose exact content the test reconstructs from the ring's
// epoch-ID spans (every ring entry advertises FirstID..ID, and the test
// recorded which elements each seal covered). At every quiesce point the
// served quantiles and ranks must enclose the true values over exactly
// that retained multiset — proving the span metadata is faithful and
// retention on compacted entries never drops or resurrects data —
// while concurrent queriers race the ring swaps.
func TestCompactionWithEvictionServesRetainedWindow(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			const runLen = 64
			opts := Options{
				Config:     core.Config{RunLen: runLen, SampleSize: 8},
				Stripes:    1, // run-aligned batches seal exactly what was ingested
				Retention:  Retention{Kind: RetainLastK, K: 4},
				Compaction: CompactionPolicy{Enabled: true},
			}
			e, err := New[int64](opts)
			if err != nil {
				t.Fatal(err)
			}
			var ptr atomic.Pointer[Engine[int64]]
			ptr.Store(e)
			stop := spawnQueriers(&ptr, 2, seed*1000)
			defer stop()

			rng := rand.New(rand.NewSource(seed))
			sealElems := map[uint64][]int64{} // seal ID → its elements
			var pending []int64               // ingested but not yet sealed
			nextSealID := uint64(1)
			evictions := false
			for wave := 0; wave < 60; wave++ {
				for b, nb := 0, 1+rng.Intn(4); b < nb; b++ {
					batch := make([]int64, runLen)
					for i := range batch {
						batch[i] = rng.Int63n(1 << 32)
					}
					if err := e.IngestBatch(batch); err != nil {
						t.Fatal(err)
					}
					pending = append(pending, batch...)
				}
				if rng.Intn(3) > 0 {
					sealed, err := e.Rotate()
					if err != nil {
						t.Fatal(err)
					}
					if sealed != (len(pending) > 0) {
						t.Fatalf("wave %d: sealed=%v with %d pending elements", wave, sealed, len(pending))
					}
					if sealed {
						sealElems[nextSealID] = pending
						nextSealID++
						pending = nil
					}
				}
				if rng.Intn(4) == 0 {
					if _, err := e.Compact(); err != nil {
						t.Fatal(err)
					}
				}

				// Quiesce: reconstruct the exact retained multiset from the
				// ring's spans and enclosure-check served answers against it.
				eps := e.Epochs()
				var retained []int64
				for i, ep := range eps {
					if ep.FirstID > ep.ID {
						t.Fatalf("entry %d has inverted span %d..%d", i, ep.FirstID, ep.ID)
					}
					if i > 0 && eps[i].FirstID != eps[i-1].ID+1 {
						t.Fatalf("ring spans not contiguous: entry %d starts at %d after %d", i, eps[i].FirstID, eps[i-1].ID)
					}
					if want := int64(ep.ID - ep.FirstID + 1); ep.Seals != want {
						t.Fatalf("entry %d: Seals=%d, span width %d", i, ep.Seals, want)
					}
					var n int64
					for id := ep.FirstID; id <= ep.ID; id++ {
						retained = append(retained, sealElems[id]...)
						n += int64(len(sealElems[id]))
					}
					if ep.N != n {
						t.Fatalf("entry %d (span %d..%d): N=%d, but covered seals hold %d elements", i, ep.FirstID, ep.ID, ep.N, n)
					}
					if ep.Bytes != n*8 {
						t.Fatalf("entry %d: Bytes=%d, want %d", i, ep.Bytes, n*8)
					}
				}
				if len(eps) > 0 && eps[0].FirstID > 1 {
					evictions = true
				}
				retained = append(retained, pending...)
				if got := e.Stats().RetainedN; got != int64(len(retained)) {
					t.Fatalf("RetainedN=%d, reconstructed window holds %d", got, len(retained))
				}
				if len(retained) == 0 {
					continue
				}
				sort.Slice(retained, func(i, j int) bool { return retained[i] < retained[j] })
				for _, phi := range []float64{0.01, 0.25, 0.5, 0.75, 0.99, 1} {
					b, err := e.Quantile(phi)
					if err != nil {
						t.Fatal(err)
					}
					truth := retained[b.Rank-1]
					if b.Lower > truth || truth > b.Upper {
						t.Fatalf("wave %d phi=%g: true %d outside [%d, %d]", wave, phi, truth, b.Lower, b.Upper)
					}
				}
				for i := 0; i < 4; i++ {
					x := retained[rng.Intn(len(retained))]
					lo, hi, err := e.RankBounds(x)
					if err != nil {
						t.Fatal(err)
					}
					trueRank := int64(sort.Search(len(retained), func(i int) bool { return retained[i] > x }))
					if trueRank < lo || trueRank > hi {
						t.Fatalf("wave %d: RankBounds(%d)=[%d,%d], true %d", wave, x, lo, hi, trueRank)
					}
				}
			}
			if !evictions {
				t.Fatal("test is vacuous: retention never evicted a compacted entry")
			}
			if e.Stats().Compactions == 0 {
				t.Fatal("test is vacuous: compaction never ran")
			}
		})
	}
}
