package engine

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"opaq/internal/core"
)

// TestEngineBoundedAdmission is the engine-side backpressure satellite:
// concurrent ingesters hammer an engine whose MaxPending they can cross,
// every one of them is eventually rejected with ErrBacklogged, and after
// one healing rotation they all get admitted again — no wedge, no loss.
func TestEngineBoundedAdmission(t *testing.T) {
	const (
		runLen    = 64
		stripes   = 2
		batchLen  = 16
		ingesters = 4
	)
	floor := int64(stripes) * (runLen - 1) * 8
	e, err := New[int64](Options{
		Config:     core.Config{RunLen: runLen, SampleSize: 8},
		Stripes:    stripes,
		MaxPending: floor + 4096,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: with no seal trigger configured, pending grows until the
	// bound rejects every ingester.
	var wg sync.WaitGroup
	admitted := make([]int64, ingesters)
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]int64, batchLen)
			for i := range batch {
				batch[i] = int64(g*1000 + i)
			}
			for {
				err := e.IngestBatch(batch)
				if errors.Is(err, ErrBacklogged) {
					return
				}
				if err != nil {
					t.Errorf("ingester %d: %v", g, err)
					return
				}
				admitted[g] += batchLen
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var total int64
	for _, n := range admitted {
		total += n
	}
	if got := e.N(); got != total {
		t.Fatalf("engine absorbed %d elements, ingesters were admitted %d", got, total)
	}
	if pb := e.PendingBytes(); pb < e.MaxPending() {
		t.Fatalf("phase 1 ended with pending %d below bound %d", pb, e.MaxPending())
	}

	// Phase 2: one rotation seals the completed runs; what remains are
	// partial buffers below the drainability floor, so every ingester's
	// single retry must be admitted even when they race each other
	// (bound − floor comfortably exceeds the retries' combined bytes).
	if sealed, err := e.Rotate(); err != nil || !sealed {
		t.Fatalf("healing rotation: sealed=%v err=%v", sealed, err)
	}
	if pb := e.PendingBytes(); pb > floor {
		t.Fatalf("after rotation %d bytes pending, above the partial-buffer floor %d", pb, floor)
	}
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]int64, batchLen)
			for i := range batch {
				batch[i] = int64(g)
			}
			if err := e.IngestBatch(batch); err != nil {
				t.Errorf("ingester %d not admitted after healing rotation: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if got, want := e.N(), total+ingesters*batchLen; got != int64(want) {
		t.Fatalf("after recovery N=%d, want %d", got, want)
	}
}

// TestEngineMaxPendingValidation pins the drainability check: a bound the
// partial-run buffers alone could cross is a permanent wedge and must be
// rejected at construction.
func TestEngineMaxPendingValidation(t *testing.T) {
	base := Options{
		Config:  core.Config{RunLen: 64, SampleSize: 8},
		Stripes: 2,
	}
	floor := int64(2) * 63 * 8
	for _, bad := range []int64{-1, 1, floor} {
		opts := base
		opts.MaxPending = bad
		if _, err := New[int64](opts); !errors.Is(err, core.ErrConfig) {
			t.Errorf("MaxPending=%d: got %v, want ErrConfig", bad, err)
		}
	}
	opts := base
	opts.MaxPending = floor + 1
	if _, err := New[int64](opts); err != nil {
		t.Errorf("MaxPending=floor+1: %v", err)
	}

	// A count/bytes trigger that fires only above the bound is a
	// livelock (admission rejects before the trigger is reached) unless
	// an Interval timer heals unconditionally.
	opts = base
	opts.MaxPending = floor + 1
	opts.Epoch = EpochPolicy{MaxElems: 1 << 20}
	if _, err := New[int64](opts); !errors.Is(err, core.ErrConfig) {
		t.Errorf("MaxElems trigger above MaxPending: got %v, want ErrConfig", err)
	}
	opts.Epoch = EpochPolicy{MaxBytes: 1 << 30}
	if _, err := New[int64](opts); !errors.Is(err, core.ErrConfig) {
		t.Errorf("MaxBytes trigger above MaxPending: got %v, want ErrConfig", err)
	}
	opts.Epoch = EpochPolicy{MaxElems: 1 << 20, Interval: time.Minute}
	e, err := New[int64](opts)
	if err != nil {
		t.Errorf("oversized trigger with an Interval heal: %v", err)
	} else {
		e.Close()
	}
	opts.Epoch = EpochPolicy{MaxElems: 32} // 256 bytes ≤ bound: fires first
	if _, err := New[int64](opts); err != nil {
		t.Errorf("trigger below MaxPending: %v", err)
	}
	// A huge MaxElems must not overflow the trigger-bytes product and
	// slip past the livelock check.
	opts.Epoch = EpochPolicy{MaxElems: 1 << 61}
	if _, err := New[int64](opts); !errors.Is(err, core.ErrConfig) {
		t.Errorf("overflowing MaxElems trigger: got %v, want ErrConfig", err)
	}
}

// TestEngineAdmissionSelfHealsWithTrigger pins the wedge fix: the seal
// the ingest that crosses the seal threshold makes due is cut by
// maybeRotate, but its TryLock can lose to a concurrent ring reader — and
// rejected ingests never used to reach maybeRotate, so one missed TryLock
// wedged a policy-driven engine in ErrBacklogged forever. admit() now
// retries the trigger before rejecting.
func TestEngineAdmissionSelfHealsWithTrigger(t *testing.T) {
	const runLen = 64
	e, err := New[int64](Options{
		Config:     core.Config{RunLen: runLen, SampleSize: 8},
		Stripes:    1,
		Epoch:      EpochPolicy{MaxElems: runLen}, // trigger == bound, in bytes
		MaxPending: runLen * 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]int64, runLen)
	for i := range batch {
		batch[i] = int64(i)
	}
	// Simulate the lost TryLock: hold epochMu across the crossing ingest
	// and the seal it leaves in flight, which PendingBytes waits for, so
	// its maybeRotate is skipped and pending lands exactly at the
	// admission bound.
	e.epochMu.Lock()
	err = e.IngestBatch(batch)
	pb := e.PendingBytes()
	e.epochMu.Unlock()
	if err != nil {
		t.Fatalf("crossing ingest: %v", err)
	}
	if pb < e.MaxPending() {
		t.Fatalf("setup failed: pending %d below bound %d", pb, e.MaxPending())
	}
	// Without admit's retry this ingest — and every one after it — would
	// return ErrBacklogged with nothing ever draining.
	if err := e.IngestBatch(batch); err != nil {
		t.Fatalf("ingest after missed trigger did not self-heal: %v", err)
	}
	if got := e.N(); got != 2*runLen {
		t.Fatalf("N=%d, want %d", got, 2*runLen)
	}
}

// TestRetainLastKCountsSeals pins the span-aware retention semantics:
// with compaction folding entries, "last K" still means K seals' worth
// of data — the ring keeps the shortest entry suffix covering ≥ K seals,
// never fewer, while an uncompacted ring keeps exactly K entries.
func TestRetainLastKCountsSeals(t *testing.T) {
	const runLen = 32
	for _, compact := range []bool{false, true} {
		opts := Options{
			Config:     core.Config{RunLen: runLen, SampleSize: 4},
			Stripes:    1,
			Retention:  Retention{Kind: RetainLastK, K: 3},
			Compaction: CompactionPolicy{Enabled: compact},
		}
		e, err := New[int64](opts)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]int64, runLen)
		for s := 0; s < 20; s++ {
			for i := range batch {
				batch[i] = int64(s*1000 + i)
			}
			if err := e.IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
			if sealed, err := e.Rotate(); err != nil || !sealed {
				t.Fatalf("seal %d: sealed=%v err=%v", s, sealed, err)
			}
			var seals int64
			eps := e.Epochs()
			for _, ep := range eps {
				seals += ep.Seals
			}
			if seals < min(int64(s+1), 3) {
				t.Fatalf("compact=%v seal %d: ring covers %d seals, want ≥ %d", compact, s, seals, min(s+1, 3))
			}
			if !compact && len(eps) > 3 {
				t.Fatalf("uncompacted ring holds %d entries, want ≤ 3", len(eps))
			}
			if !compact && seals != min(int64(s+1), 3) {
				t.Fatalf("uncompacted ring covers %d seals, want exactly %d", seals, min(s+1, 3))
			}
			// Dropping the oldest entry must leave < K seals — otherwise
			// retention under-evicted.
			if len(eps) > 1 && seals-eps[0].Seals >= 3 {
				t.Fatalf("compact=%v seal %d: suffix without oldest entry still covers %d seals — not the shortest suffix", compact, s, seals-eps[0].Seals)
			}
		}
		var seals int64
		for _, ep := range e.Epochs() {
			seals += ep.Seals
		}
		st := e.Stats()
		if st.EvictedEpochs == 0 {
			t.Fatalf("compact=%v: retention never evicted", compact)
		}
		// Both counters are seal-weighted, so their difference is the
		// retained seal count even when evictions drop compacted spans.
		if st.SealedEpochs-st.EvictedEpochs != seals {
			t.Fatalf("compact=%v: sealed %d − evicted %d ≠ retained seals %d",
				compact, st.SealedEpochs, st.EvictedEpochs, seals)
		}
	}
}

// TestHTTPEngineSideBacklog429 checks the transport mapping: when the
// ENGINE (not the HTTP shed) rejects with ErrBacklogged, the client still
// sees the standard 429 + Retry-After backpressure response.
func TestHTTPEngineSideBacklog429(t *testing.T) {
	const runLen = 64
	floor := int64(runLen-1) * 8
	e, err := New[int64](Options{
		Config:     core.Config{RunLen: runLen, SampleSize: 8},
		Stripes:    1,
		MaxPending: floor + 8, // one more element than the partials floor
	})
	if err != nil {
		t.Fatal(err)
	}
	// No HandlerOptions.MaxPendingBytes: the HTTP-side shed is off, so
	// the rejection must come from the engine's own admission.
	srv := httptest.NewServer(NewHandler(e, Int64Key))
	defer srv.Close()

	post := func() *http.Response {
		t.Helper()
		var keys bytes.Buffer
		keys.WriteString(`{"keys":[`)
		for i := 0; i < runLen-1; i++ { // stays a partial run: unsealable
			if i > 0 {
				keys.WriteByte(',')
			}
			fmt.Fprintf(&keys, "%d", i)
		}
		keys.WriteString(`]}`)
		resp, err := http.Post(srv.URL+"/ingest", "application/json", &keys)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// Admission is checked at call entry, so the bound is crossed by the
	// second body and the third is the first to be shed.
	if resp := post(); resp.StatusCode != http.StatusOK {
		t.Fatalf("first ingest: status %d", resp.StatusCode)
	}
	if resp := post(); resp.StatusCode != http.StatusOK {
		t.Fatalf("second ingest: status %d", resp.StatusCode)
	}
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backlogged ingest: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
}
