package opaqclient

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"opaq/internal/core"
	"opaq/internal/engine"
	"opaq/internal/runio"
)

var testCfg = core.Config{RunLen: 1 << 10, SampleSize: 1 << 5}

func newTestEngine(t testing.TB) *engine.Engine[int64] {
	t.Helper()
	e, err := engine.New[int64](engine.Options{Config: testCfg, Stripes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// startHTTP serves the binary-enabled HTTP handler for one engine.
func startHTTP(t *testing.T, e *engine.Engine[int64], opts engine.HandlerOptions) string {
	t.Helper()
	srv := httptest.NewServer(engine.NewHandlerCodec(e, engine.Int64Key, runio.Int64Codec{}, opts))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestSizeTrigger: Add flushes exactly on the MaxBatch boundary, and N()
// tracks the server's acked element count.
func TestSizeTrigger(t *testing.T) {
	t.Run("http", func(t *testing.T) {
		e := newTestEngine(t)
		c := NewHTTP(startHTTP(t, e, engine.HandlerOptions{}), runio.Int64Codec{}, Options{MaxBatch: 10})
		for i := 0; i < 25; i++ {
			if err := c.Add(int64(i)); err != nil {
				t.Fatalf("Add(%d): %v", i, err)
			}
		}
		// Two full batches flushed; five elements await the next trigger.
		if got := c.Buffered(); got != 5 {
			t.Errorf("Buffered() = %d, want 5", got)
		}
		if n := e.N(); n != 20 {
			t.Errorf("server n = %d before explicit flush, want 20", n)
		}
		if got := c.N(); got != 20 {
			t.Errorf("client N() = %d, want 20", got)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if n := e.N(); n != 25 {
			t.Errorf("server n = %d after Close, want 25", n)
		}
		if got := c.N(); got != 25 {
			t.Errorf("client N() = %d after Close, want 25", got)
		}
	})
}

// TestAddBatchChunking: one AddBatch call larger than MaxBatch flushes in
// MaxBatch-sized frames and leaves only the tail buffered.
func TestAddBatchChunking(t *testing.T) {
	e := newTestEngine(t)
	c := NewHTTP(startHTTP(t, e, engine.HandlerOptions{}), runio.Int64Codec{}, Options{MaxBatch: 1000})
	vs := make([]int64, 10_005)
	for i := range vs {
		vs[i] = int64(i)
	}
	if err := c.AddBatch(vs); err != nil {
		t.Fatal(err)
	}
	if got := c.Buffered(); got != 5 {
		t.Errorf("Buffered() = %d, want 5", got)
	}
	if n := e.N(); n != 10_000 {
		t.Errorf("server n = %d, want 10000", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := e.N(); n != 10_005 {
		t.Errorf("server n = %d after Close, want 10005", n)
	}
}

// TestFlushInterval: the wall-clock trigger ships a below-threshold batch
// without any explicit Flush.
func TestFlushInterval(t *testing.T) {
	e := newTestEngine(t)
	c := NewHTTP(startHTTP(t, e, engine.HandlerOptions{}), runio.Int64Codec{}, Options{
		MaxBatch:      1 << 20, // size trigger out of reach
		FlushInterval: 10 * time.Millisecond,
	})
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Add(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.N() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("interval flush never landed: server n = %d", e.N())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Buffered(); got != 0 {
		t.Errorf("Buffered() = %d after interval flush, want 0", got)
	}
}

// TestBackpressureRetainsBuffer: a shed flush surfaces *Backpressure with
// the server's hint, keeps every element buffered, and the same batch
// lands once the backlog heals — nothing dropped, nothing duplicated.
func TestBackpressureRetainsBuffer(t *testing.T) {
	t.Run("http", func(t *testing.T) {
		e := newTestEngine(t)
		// A bound below one run: pending bytes from the first batch trip
		// it and no rotation can heal until the run completes.
		url := startHTTP(t, e, engine.HandlerOptions{MaxPendingBytes: 512, RetryAfter: 2 * time.Second})
		c := NewHTTP(url, runio.Int64Codec{}, Options{MaxBatch: 100})
		first := make([]int64, 100)
		if err := c.AddBatch(first); err != nil {
			t.Fatalf("first batch: %v", err)
		}
		// 100×8 = 800 pending bytes > 512: the next flush sheds.
		second := make([]int64, 100)
		err := c.AddBatch(second)
		var bp *Backpressure
		if !errors.As(err, &bp) {
			t.Fatalf("second batch: %v, want *Backpressure", err)
		}
		if bp.RetryAfter != 2*time.Second {
			t.Errorf("RetryAfter = %v, want 2s", bp.RetryAfter)
		}
		if got := c.Buffered(); got != 100 {
			t.Errorf("Buffered() = %d after shed, want 100", got)
		}
		if n := e.N(); n != 100 {
			t.Errorf("server n = %d after shed, want 100", n)
		}
		// Heal: complete the run directly and seal it, then retry.
		for i := 0; i < testCfg.RunLen-100; i++ {
			if err := e.Ingest(int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Rotate(); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("post-heal Flush: %v", err)
		}
		if got := c.Buffered(); got != 0 {
			t.Errorf("Buffered() = %d after retry, want 0", got)
		}
		if n := e.N(); n != int64(testCfg.RunLen)+100 {
			t.Errorf("server n = %d, want %d", n, testCfg.RunLen+100)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestIntervalBackpressureNotSticky: a shed interval flush is not a
// sticky error — the producer keeps Adding and a later tick retries.
func TestIntervalBackpressureNotSticky(t *testing.T) {
	e := newTestEngine(t)
	url := startHTTP(t, e, engine.HandlerOptions{MaxPendingBytes: 512, RetryAfter: time.Second})
	c := NewHTTP(url, runio.Int64Codec{}, Options{
		MaxBatch:      1 << 20,
		FlushInterval: 10 * time.Millisecond,
	})
	defer c.Close()
	// Fill past the bound so ticks shed.
	big := make([]int64, 100)
	if err := c.AddBatch(big); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.N() != 100 {
		if time.Now().After(deadline) {
			t.Fatalf("first interval flush never landed: n = %d", e.N())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Add(1); err != nil {
		t.Fatal(err)
	}
	// Give the ticker time to shed at least once against the backlog.
	time.Sleep(50 * time.Millisecond)
	if err := c.Add(2); err != nil {
		t.Fatalf("Add after shed ticks: %v (backpressure must not stick)", err)
	}
	// Heal and confirm the buffered elements eventually land.
	for i := 0; i < testCfg.RunLen-100; i++ {
		if err := e.Ingest(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Rotate(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for e.N() != int64(testCfg.RunLen)+2 {
		if time.Now().After(deadline) {
			t.Fatalf("post-heal interval flush never landed: n = %d", e.N())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTenantRouting: Options.Tenant lands elements in the right registry
// tenant.
func TestTenantRouting(t *testing.T) {
	reg, err := engine.NewRegistry(engine.RegistryOptions[int64]{
		Defaults: engine.Options{Config: testCfg, Stripes: 1},
		Codec:    runio.Int64Codec{}, // enables the handler's binary route
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, name := range []string{engine.DefaultTenant, "lat"} {
		if _, err := reg.Create(name, nil); err != nil {
			t.Fatal(err)
		}
	}

	hsrv := httptest.NewServer(engine.NewRegistryHandler(reg, engine.Int64Key, engine.HandlerOptions{}))
	defer hsrv.Close()
	hc := NewHTTP(hsrv.URL, runio.Int64Codec{}, Options{Tenant: "lat", MaxBatch: 4})
	if err := hc.AddBatch([]int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	hc.Close()

	lat, err := reg.Get("lat")
	if err != nil {
		t.Fatal(err)
	}
	if n := lat.N(); n != 4 {
		t.Errorf("tenant lat: n = %d, want 4", n)
	}
	def, err := reg.Get(engine.DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if n := def.N(); n != 0 {
		t.Errorf("default tenant: n = %d, want 0 (nothing routed there)", n)
	}
}

// TestProtocolErrorIsPlain: a rejection without a retry hint (wrong codec
// kind) surfaces as a plain error, not *Backpressure.
func TestProtocolErrorIsPlain(t *testing.T) {
	e := newTestEngine(t)
	url := startHTTP(t, e, engine.HandlerOptions{})
	// Client speaks float64 at an int64 server.
	c := NewHTTP(url, runio.Float64Codec{}, Options{MaxBatch: 2})
	err := c.AddBatch([]float64{1, 2})
	if err == nil {
		t.Fatal("mismatched codec kind accepted")
	}
	var bp *Backpressure
	if errors.As(err, &bp) {
		t.Fatalf("protocol rejection surfaced as backpressure: %v", err)
	}
}

// TestJournaledAck: a coordinator that accepts a batch into its
// write-ahead journal answers 202 + X-Opaq-Journaled with an ack frame.
// The client must treat that as a durable flush — buffer emptied, no
// error — but count it under Journaled() instead of advancing the N()
// watermark, which only real worker acks move.
func TestJournaledAck(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, err := runio.ReadFrameHeader(r.Body, 0)
		if err != nil {
			t.Errorf("server: %v", err)
			return
		}
		payload, err := runio.ReadFramePayload(r.Body, h, nil)
		if err != nil {
			t.Errorf("server: %v", err)
			return
		}
		_, elems, err := runio.SplitDataPayload(payload, 8)
		if err != nil {
			t.Errorf("server: %v", err)
			return
		}
		w.Header().Set("X-Opaq-Journaled", "true")
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusAccepted)
		w.Write(runio.AppendAckFrame(nil, uint32(len(elems)/8), 0))
	}))
	t.Cleanup(srv.Close)

	c := NewHTTP(srv.URL, runio.Int64Codec{}, Options{MaxBatch: 100})
	if err := c.AddBatch([]int64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("journaled flush returned error: %v", err)
	}
	if got := c.Buffered(); got != 0 {
		t.Errorf("Buffered() = %d after journaled ack, want 0", got)
	}
	if got := c.Journaled(); got != 5 {
		t.Errorf("Journaled() = %d, want 5", got)
	}
	if got := c.N(); got != 0 {
		t.Errorf("N() = %d after journal-only acks, want 0", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
