package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"opaq/internal/core"
	"opaq/internal/metrics"
	"opaq/internal/runio"
)

// TestEngineKeepAllByteIdenticalAcrossRotation pins the refactor's
// central guarantee: because seals happen only at run boundaries, a
// keep-all engine checkpoints byte-identically whether rotation never ran
// (the pre-epoch engine's behavior) or ran aggressively throughout.
func TestEngineKeepAllByteIdenticalAcrossRotation(t *testing.T) {
	codec := runio.Int64Codec{}
	opts := Options{
		Config:  core.Config{RunLen: 128, SampleSize: 16},
		Stripes: 3,
		Buckets: 16,
	}
	plain, err := New[int64](opts)
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := New[int64](opts)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 400; i++ {
		batch := make([]int64, 31) // deliberately not run-aligned
		for j := range batch {
			batch[j] = rng.Int63n(1 << 44)
		}
		if err := plain.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := rotated.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		if i%17 == 0 {
			if _, err := rotated.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := rotated.Stats(); st.SealedEpochs == 0 {
		t.Fatal("test is vacuous: rotation never sealed an epoch")
	}

	var a, b bytes.Buffer
	if err := plain.Checkpoint(&a, codec); err != nil {
		t.Fatal(err)
	}
	if err := rotated.Checkpoint(&b, codec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("keep-all checkpoint bytes diverge between rotated and unrotated engines")
	}
}

// TestEngineWindowedTortureConcurrent is the windowed acceptance
// criterion under -race: a sliding-window engine's served quantiles are
// enclosure-checked against an exact oracle computed over only the
// retained window, at quiesce points across several epoch evictions,
// while concurrent queriers hammer it mid-wave.
func TestEngineWindowedTortureConcurrent(t *testing.T) {
	const (
		runLen    = 512
		keepK     = 3
		ingesters = 4
		batches   = 2 // full-run batches per ingester per wave
		waves     = 8
	)
	e, err := New[int64](Options{
		Config:    core.Config{RunLen: runLen, SampleSize: 64},
		Stripes:   2,
		Buckets:   32,
		Retention: Retention{Kind: RetainLastK, K: keepK},
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for q := 0; q < 3; q++ {
		qwg.Add(1)
		go func(q int) {
			defer qwg.Done()
			rng := rand.New(rand.NewSource(int64(500 + q)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				phi := rng.Float64()
				if phi == 0 {
					phi = 0.5
				}
				b, err := e.Quantile(phi)
				switch {
				case errors.Is(err, core.ErrEmpty):
				case err != nil:
					t.Errorf("querier %d: %v", q, err)
					return
				case b.Upper < b.Lower:
					t.Errorf("querier %d: inverted enclosure [%d, %d]", q, b.Lower, b.Upper)
					return
				}
				a, c := rng.Int63n(1<<40), rng.Int63n(1<<40)
				if c < a {
					a, c = c, a
				}
				if sel, err := e.Selectivity(a, c); err == nil && (sel < 0 || sel > 1) {
					t.Errorf("querier %d: selectivity %g out of [0,1]", q, sel)
					return
				}
			}
		}(q)
	}

	// waveLogs[k] holds exactly the elements sealed into epoch k+1: every
	// batch is one full run, so at each quiesce Rotate seals precisely
	// this wave.
	waveLogs := make([][]int64, 0, waves)
	for wave := 0; wave < waves; wave++ {
		logs := make([][]int64, ingesters)
		var iwg sync.WaitGroup
		for g := 0; g < ingesters; g++ {
			iwg.Add(1)
			go func(g int) {
				defer iwg.Done()
				rng := rand.New(rand.NewSource(int64(wave*ingesters + g + 1)))
				for b := 0; b < batches; b++ {
					batch := make([]int64, runLen)
					for i := range batch {
						batch[i] = rng.Int63n(1 << 40)
					}
					logs[g] = append(logs[g], batch...)
					if err := e.IngestBatch(batch); err != nil {
						t.Errorf("ingester %d: %v", g, err)
						return
					}
				}
			}(g)
		}
		iwg.Wait()
		var waveAll []int64
		for g := range logs {
			waveAll = append(waveAll, logs[g]...)
		}
		waveLogs = append(waveLogs, waveAll)

		sealed, err := e.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if !sealed {
			t.Fatalf("wave %d: rotation sealed nothing despite %d full runs", wave, ingesters*batches)
		}
		if p := e.PendingElems(); p != 0 {
			t.Fatalf("wave %d: %d pending elements after rotating run-aligned batches", wave, p)
		}

		// The exact oracle covers ONLY the retained window.
		first := 0
		if len(waveLogs) > keepK {
			first = len(waveLogs) - keepK
		}
		var window []int64
		for _, w := range waveLogs[first:] {
			window = append(window, w...)
		}
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Summary.N() != int64(len(window)) {
			t.Fatalf("wave %d: snapshot N = %d, window has %d", wave, snap.Summary.N(), len(window))
		}
		o := metrics.NewOracle(window)
		for _, phi := range torturePhis {
			b, err := snap.Summary.Bounds(phi)
			if err != nil {
				t.Fatalf("wave %d: Bounds(%g): %v", wave, phi, err)
			}
			assertEnclosure(t, o, b, phi)
		}
		st := e.Stats()
		if want := int64(wave+1) * int64(ingesters*batches*runLen); st.N != want {
			t.Fatalf("wave %d: lifetime N = %d, want %d", wave, st.N, want)
		}
		if wave+1 > keepK {
			if st.EvictedEpochs != int64(wave+1-keepK) {
				t.Fatalf("wave %d: evicted %d epochs, want %d", wave, st.EvictedEpochs, wave+1-keepK)
			}
			if st.RetainedN != int64(len(window)) {
				t.Fatalf("wave %d: RetainedN = %d, window %d", wave, st.RetainedN, len(window))
			}
		}
		if st.Epochs != min(wave+1, keepK) {
			t.Fatalf("wave %d: ring holds %d epochs, want %d", wave, st.Epochs, min(wave+1, keepK))
		}
	}
	close(stop)
	qwg.Wait()

	// A ragged tail (partial runs in the live stripes) joins the window:
	// retained epochs + unsealed elements.
	tail := make([]int64, 300)
	rng := rand.New(rand.NewSource(4242))
	for i := range tail {
		tail[i] = rng.Int63n(1 << 40)
		if err := e.Ingest(tail[i]); err != nil {
			t.Fatal(err)
		}
	}
	var window []int64
	for _, w := range waveLogs[len(waveLogs)-keepK:] {
		window = append(window, w...)
	}
	window = append(window, tail...)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Summary.N() != int64(len(window)) {
		t.Fatalf("tail: snapshot N = %d, window %d", snap.Summary.N(), len(window))
	}
	o := metrics.NewOracle(window)
	for _, phi := range torturePhis {
		b, err := snap.Summary.Bounds(phi)
		if err != nil {
			t.Fatal(err)
		}
		assertEnclosure(t, o, b, phi)
	}
}

// TestEngineRestoreLandsAsOwnEpoch pins the bugfix-sweep contract: a
// Restore into a non-empty engine must land as its own epoch — leaving
// live stripes and previous epochs untouched — and retention treats it
// like any other epoch.
func TestEngineRestoreLandsAsOwnEpoch(t *testing.T) {
	codec := runio.Int64Codec{}
	src := newTestEngine(t, 2)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		if err := src.Ingest(rng.Int63n(1 << 40)); err != nil {
			t.Fatal(err)
		}
	}
	var ckpt bytes.Buffer
	if err := src.Checkpoint(&ckpt, codec); err != nil {
		t.Fatal(err)
	}

	dst := newTestEngine(t, 3)
	live := make([]int64, 700)
	for i := range live {
		live[i] = rng.Int63n(1 << 40)
	}
	if err := dst.IngestBatch(live); err != nil {
		t.Fatal(err)
	}
	before := dst.Stats()
	if err := dst.Restore(bytes.NewReader(ckpt.Bytes()), codec); err != nil {
		t.Fatal(err)
	}
	after := dst.Stats()
	if after.Epochs != before.Epochs+1 || after.SealedEpochs != before.SealedEpochs+1 {
		t.Fatalf("restore did not land as its own epoch: %+v → %+v", before, after)
	}
	if after.PendingElems != before.PendingElems {
		t.Fatalf("restore disturbed live stripes: pending %d → %d", before.PendingElems, after.PendingElems)
	}
	ring := dst.Epochs()
	if got := ring[len(ring)-1].Source; got != EpochRestore {
		t.Fatalf("restored epoch source = %q, want %q", got, EpochRestore)
	}
	if dst.N() != src.N()+int64(len(live)) {
		t.Fatalf("N = %d, want %d", dst.N(), src.N()+int64(len(live)))
	}
	// Restoring twice merges shards of history as two epochs.
	if err := dst.Restore(bytes.NewReader(ckpt.Bytes()), codec); err != nil {
		t.Fatal(err)
	}
	if got := dst.Stats().Epochs; got != after.Epochs+1 {
		t.Fatalf("second restore: %d epochs, want %d", got, after.Epochs+1)
	}

	// Under last-K retention a restored epoch ages out like any other.
	windowed, err := New[int64](Options{
		Config:    core.Config{RunLen: 512, SampleSize: 64},
		Stripes:   2,
		Retention: Retention{Kind: RetainLastK, K: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := windowed.Restore(bytes.NewReader(ckpt.Bytes()), codec); err != nil {
		t.Fatal(err)
	}
	if got := windowed.Stats().Epochs; got != 1 {
		t.Fatalf("restored epochs = %d", got)
	}
	if err := windowed.IngestBatch(make([]int64, 512)); err != nil {
		t.Fatal(err)
	}
	if _, err := windowed.Rotate(); err != nil {
		t.Fatal(err)
	}
	st := windowed.Stats()
	if st.Epochs != 1 || st.EvictedEpochs != 1 || st.EvictedN != src.N() {
		t.Fatalf("restored epoch not evicted under RetainLastK{1}: %+v", st)
	}
}

// TestEngineCheckpointConcurrentWithIngest pins the bugfix-sweep
// contract: checkpoints cut while ingest and rotation race must each be a
// consistent sealed set — LoadSummary re-validates every structural
// invariant, so a torn merge set (double-counted or dropped stripe)
// cannot load — and none may cover more elements than N() reports.
//
// Ingest is paced in rounds: each checkpoint is cut while every ingester
// adds its next roundElems keys, and the next round starts once all have.
// So every checkpoint races ingest, and N grows with the checkpoint count
// rather than with wall time: a fast ingest path or a slow race detector
// cannot make the O(N) checkpoints fall behind the deadline.
func TestEngineCheckpointConcurrentWithIngest(t *testing.T) {
	const (
		ingesters   = 4
		roundElems  = 2048
		checkpoints = 40
		seals       = 3
	)
	codec := runio.Int64Codec{}
	e, err := New[int64](Options{
		Config:  core.Config{RunLen: 256, SampleSize: 32},
		Stripes: 4,
		Epoch:   EpochPolicy{MaxElems: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		changed = sync.NewCond(&mu) // budget, stopped or a finished round
		budget  int                 // keys each ingester may have added
		added   [ingesters]int
		stopped bool
		wg      sync.WaitGroup
	)
	stop := func() {
		mu.Lock()
		stopped = true
		mu.Unlock()
		changed.Broadcast()
	}
	// Stop the ingesters on every exit, t.Fatal included, so none leaks
	// into the next run under -count.
	defer wg.Wait()
	defer stop()
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				mu.Lock()
				for !stopped && added[g] >= budget {
					changed.Wait()
				}
				done := stopped
				mu.Unlock()
				if done {
					return
				}
				batch := make([]int64, 1+rng.Intn(300))
				for i := range batch {
					batch[i] = rng.Int63n(1 << 40)
				}
				if err := e.IngestBatch(batch); err != nil {
					t.Errorf("ingester %d: %v", g, err)
					stop()
					return
				}
				mu.Lock()
				added[g] += len(batch)
				if added[g] >= budget {
					changed.Broadcast()
				}
				mu.Unlock()
			}
		}(g)
	}
	// roundDone waits until every ingester has used up its budget and
	// reports false when they were stopped instead.
	roundDone := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for !stopped && slices.Min(added[:]) < budget {
			changed.Wait()
		}
		return !stopped
	}
	// Checkpoint until both targets are met, bounded by a deadline so a
	// broken trigger fails loudly rather than spinning.
	deadline := time.Now().Add(10 * time.Second)
	cut := 0
	for ; cut < checkpoints || e.Stats().SealedEpochs < seals; cut++ {
		if time.Now().After(deadline) {
			break
		}
		mu.Lock()
		budget += roundElems
		mu.Unlock()
		changed.Broadcast()
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf, codec); err != nil {
			t.Fatalf("checkpoint %d: %v", cut, err)
		}
		sum, err := core.LoadSummary[int64](bytes.NewReader(buf.Bytes()), codec)
		if err != nil {
			t.Fatalf("checkpoint %d does not load: %v", cut, err)
		}
		if sum.N() > e.N() {
			t.Fatalf("checkpoint %d covers %d elements, engine has only absorbed %d", cut, sum.N(), e.N())
		}
		if !roundDone() {
			return
		}
	}
	if cut < checkpoints {
		t.Errorf("only %d checkpoints within the deadline, want %d", cut, checkpoints)
	}
	if sealed := e.Stats().SealedEpochs; sealed < seals {
		t.Errorf("MaxElems policy sealed %d epochs within the deadline, want %d", sealed, seals)
	}
}

// TestEngineCountsBeforeVisible parks an ingester right after its stripe
// unlock, where its elements are already visible to a snapshot, and cuts
// a checkpoint there. Ingest and IngestBatch must have counted the
// elements inside the stripe lock, so the checkpoint covers no more than
// N().
func TestEngineCountsBeforeVisible(t *testing.T) {
	codec := runio.Int64Codec{}
	batch := make([]int64, 100)
	for i := range batch {
		batch[i] = int64(i)
	}
	for _, tc := range []struct {
		name   string
		ingest func(*Engine[int64]) error
		want   int64
	}{
		{"Ingest", func(e *Engine[int64]) error { return e.Ingest(7) }, 1},
		{"IngestBatch", func(e *Engine[int64]) error { return e.IngestBatch(batch) }, int64(len(batch))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New[int64](Options{Config: core.Config{RunLen: 64, SampleSize: 8}, Stripes: 1})
			if err != nil {
				t.Fatal(err)
			}
			parked, release := make(chan struct{}), make(chan struct{})
			e.afterIngestUnlock = func() {
				close(parked)
				<-release
			}
			done := make(chan error, 1)
			go func() { done <- tc.ingest(e) }()
			<-parked
			var buf bytes.Buffer
			cpErr := e.Checkpoint(&buf, codec)
			n := e.N()
			close(release)
			if err := <-done; err != nil {
				t.Fatalf("ingest: %v", err)
			}
			if cpErr != nil {
				t.Fatalf("checkpoint: %v", cpErr)
			}
			sum, err := core.LoadSummary[int64](bytes.NewReader(buf.Bytes()), codec)
			if err != nil {
				t.Fatalf("checkpoint does not load: %v", err)
			}
			if sum.N() != tc.want {
				t.Fatalf("checkpoint covers %d elements, want the parked ingester's %d", sum.N(), tc.want)
			}
			if sum.N() > n {
				t.Fatalf("checkpoint covers %d elements, engine has only absorbed %d", sum.N(), n)
			}
		})
	}
}

// TestEngineEpochPolicyTriggers exercises the count, bytes and wall-clock
// seal triggers.
func TestEngineEpochPolicyTriggers(t *testing.T) {
	t.Run("MaxElems", func(t *testing.T) {
		e, err := New[int64](Options{
			Config:  core.Config{RunLen: 64, SampleSize: 8},
			Stripes: 1,
			Epoch:   EpochPolicy{MaxElems: 256},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := e.IngestBatch(make([]int64, 64)); err != nil {
				t.Fatal(err)
			}
		}
		st := e.Stats()
		if st.SealedEpochs == 0 {
			t.Fatal("MaxElems trigger never sealed")
		}
		if st.PendingElems >= 256 {
			t.Fatalf("pending %d elements despite MaxElems 256", st.PendingElems)
		}
	})
	t.Run("MaxBytes", func(t *testing.T) {
		e, err := New[int64](Options{
			Config:  core.Config{RunLen: 64, SampleSize: 8},
			Stripes: 1,
			Epoch:   EpochPolicy{MaxBytes: 1024}, // 128 int64s
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := e.IngestBatch(make([]int64, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if st := e.Stats(); st.SealedEpochs == 0 {
			t.Fatal("MaxBytes trigger never sealed")
		}
	})
	t.Run("Interval", func(t *testing.T) {
		e, err := New[int64](Options{
			Config:  core.Config{RunLen: 64, SampleSize: 8},
			Stripes: 1,
			Epoch:   EpochPolicy{Interval: 5 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.IngestBatch(make([]int64, 128)); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for e.Stats().SealedEpochs == 0 {
			if time.Now().After(deadline) {
				t.Fatal("interval timer never sealed")
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := e.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	})
}

// TestEngineRetainMaxAge verifies the sliding wall-clock window: expired
// epochs leave the merge set even when nothing rotates — the snapshot
// rebuild drops them.
func TestEngineRetainMaxAge(t *testing.T) {
	e, err := New[int64](Options{
		Config:    core.Config{RunLen: 64, SampleSize: 8},
		Stripes:   1,
		Retention: Retention{Kind: RetainMaxAge, MaxAge: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(make([]int64, 128)); err != nil {
		t.Fatal(err)
	}
	if sealed, err := e.Rotate(); err != nil || !sealed {
		t.Fatalf("rotate: sealed=%v err=%v", sealed, err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Summary.N() != 128 {
		t.Fatalf("pre-expiry N = %d", snap.Summary.N())
	}
	time.Sleep(50 * time.Millisecond)
	// Even before any query physically evicts, reporting excludes the
	// expired epoch: Stats and Epochs describe what a query would serve.
	if st := e.Stats(); st.Epochs != 0 || st.RetainedN != 0 {
		t.Fatalf("pre-eviction stats still count expired epochs: %+v", st)
	}
	if ring := e.Epochs(); len(ring) != 0 {
		t.Fatalf("pre-eviction Epochs still lists expired: %+v", ring)
	}
	// No rotation, no ingest: the query path itself must age the epoch out.
	if _, err := e.Quantile(0.5); !errors.Is(err, core.ErrEmpty) {
		t.Fatalf("post-expiry Quantile err = %v, want ErrEmpty", err)
	}
	st := e.Stats()
	if st.Epochs != 0 || st.EvictedEpochs != 1 || st.EvictedN != 128 || st.RetainedN != 0 {
		t.Fatalf("post-expiry stats: %+v", st)
	}
}

// TestOldestDeadlineHoist pins the cached oldest-epoch deadline behind
// oldestExpired: the hot read path checks window expiry with one atomic
// load, so every ring publication must keep the cache honest — set on
// seal, extended by a compaction swap (whose head's SealedAt is its
// newest covered seal), cleared when the ring empties, and permanently
// at the noDeadline sentinel for engines without age-based retention.
func TestOldestDeadlineHoist(t *testing.T) {
	const maxAge = 40 * time.Millisecond
	e, err := New[int64](Options{
		Config:    core.Config{RunLen: 64, SampleSize: 8},
		Stripes:   1,
		Retention: Retention{Kind: RetainMaxAge, MaxAge: maxAge},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dl := e.oldestDeadline.Load(); dl != noDeadline {
		t.Fatalf("empty ring: deadline %d, want noDeadline sentinel", dl)
	}
	if e.oldestExpired() {
		t.Fatal("empty engine reports an expired window")
	}
	if err := e.IngestBatch(make([]int64, 256)); err != nil {
		t.Fatal(err)
	}
	if sealed, err := e.Rotate(); err != nil || !sealed {
		t.Fatalf("rotate: sealed=%v err=%v", sealed, err)
	}
	ring := *e.ring.Load()
	if want := ring[0].SealedAt.Add(maxAge).UnixNano(); e.oldestDeadline.Load() != want {
		t.Fatalf("post-seal deadline %d, want oldest SealedAt+MaxAge %d", e.oldestDeadline.Load(), want)
	}
	if e.oldestExpired() {
		t.Fatal("freshly sealed epoch reports as expired")
	}
	// A compaction swap must republish the deadline from the compacted
	// head (newest covered seal — eviction never fires early).
	if err := e.IngestBatch(make([]int64, 256)); err != nil {
		t.Fatal(err)
	}
	if sealed, err := e.Rotate(); err != nil || !sealed {
		t.Fatalf("second rotate: sealed=%v err=%v", sealed, err)
	}
	if changed, err := e.Compact(); err != nil || !changed {
		t.Fatalf("compact: changed=%v err=%v", changed, err)
	}
	ring = *e.ring.Load()
	if len(ring) != 1 {
		t.Fatalf("compacted ring depth %d, want 1", len(ring))
	}
	if want := ring[0].SealedAt.Add(maxAge).UnixNano(); e.oldestDeadline.Load() != want {
		t.Fatalf("post-compaction deadline %d, want compacted head SealedAt+MaxAge %d", e.oldestDeadline.Load(), want)
	}
	time.Sleep(2 * maxAge)
	if !e.oldestExpired() {
		t.Fatal("aged-out window not reported by the cached deadline")
	}
	// The query path evicts the expired epoch; publishing the emptied
	// ring must reset the deadline to the sentinel.
	if _, err := e.Quantile(0.5); !errors.Is(err, core.ErrEmpty) {
		t.Fatalf("post-expiry Quantile err = %v, want ErrEmpty", err)
	}
	if dl := e.oldestDeadline.Load(); dl != noDeadline {
		t.Fatalf("post-eviction deadline %d, want noDeadline sentinel", dl)
	}
	if e.oldestExpired() {
		t.Fatal("emptied engine still reports an expired window")
	}

	// Engines without age-based retention never arm the deadline: the
	// per-query check is one always-false compare.
	ka, err := New[int64](Options{Config: core.Config{RunLen: 64, SampleSize: 8}, Stripes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ka.IngestBatch(make([]int64, 256)); err != nil {
		t.Fatal(err)
	}
	if sealed, err := ka.Rotate(); err != nil || !sealed {
		t.Fatalf("keep-all rotate: sealed=%v err=%v", sealed, err)
	}
	if dl := ka.oldestDeadline.Load(); dl != noDeadline {
		t.Fatalf("keep-all engine armed a deadline: %d", dl)
	}
}

// TestEngineRotateNoRuns pins Rotate on an engine whose stripes hold only
// partial runs: nothing seals, nothing is lost.
func TestEngineRotateNoRuns(t *testing.T) {
	e := newTestEngine(t, 2) // RunLen 512
	if err := e.IngestBatch(make([]int64, 100)); err != nil {
		t.Fatal(err)
	}
	sealed, err := e.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if sealed {
		t.Fatal("rotation sealed an epoch out of partial runs")
	}
	if st := e.Stats(); st.PendingElems != 100 || st.Epochs != 0 {
		t.Fatalf("stats after no-op rotate: %+v", st)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Summary.N() != 100 {
		t.Fatalf("snapshot N = %d", snap.Summary.N())
	}
}

// TestEngineLifecycleOptionValidation pins constructor rejection of bad
// epoch and retention configurations.
func TestEngineLifecycleOptionValidation(t *testing.T) {
	cfg := core.Config{RunLen: 8, SampleSize: 2}
	bad := []Options{
		{Config: cfg, Epoch: EpochPolicy{MaxElems: -1}},
		{Config: cfg, Epoch: EpochPolicy{Interval: -time.Second}},
		{Config: cfg, Retention: Retention{Kind: RetainLastK}},
		{Config: cfg, Retention: Retention{Kind: RetainMaxAge}},
		{Config: cfg, Retention: Retention{Kind: RetentionKind(99)}},
	}
	for i, o := range bad {
		if _, err := New[int64](o); !errors.Is(err, core.ErrConfig) {
			t.Errorf("options %d: err = %v, want ErrConfig", i, err)
		}
	}
}
