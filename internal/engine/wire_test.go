package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"opaq/internal/core"
	"opaq/internal/runio"
)

// wireCfg is a small config so runs complete quickly in tests.
var wireCfg = core.Config{RunLen: 1 << 10, SampleSize: 1 << 5}

// newWireEngine returns a fresh single-stripe engine. One stripe makes
// batch placement deterministic, which the byte-identical cross-format
// equivalence requires (round-robin order is part of the run composition).
func newWireEngine(t testing.TB) *Engine[int64] {
	t.Helper()
	e, err := New[int64](Options{Config: wireCfg, Stripes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// wireBatches is the deterministic element stream all transports ingest,
// pre-split into the identical batch boundaries.
func wireBatches(n, batch int) [][]int64 {
	rng := rand.New(rand.NewSource(99))
	var out [][]int64
	for n > 0 {
		take := batch
		if take > n {
			take = n
		}
		b := make([]int64, take)
		for i := range b {
			b[i] = rng.Int63n(1 << 40)
		}
		out = append(out, b)
		n -= take
	}
	return out
}

// postJSONBatch ingests one batch through the JSON route.
func postJSONBatch(t *testing.T, url string, batch []int64) {
	t.Helper()
	keys := make([]json.Number, len(batch))
	for i, v := range batch {
		keys[i] = json.Number(fmt.Sprint(v))
	}
	body, err := json.Marshal(map[string]any{"keys": keys})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("json ingest: %d: %s", resp.StatusCode, b)
	}
}

// postBinary ingests one batch as an octet-stream frame and returns the
// decoded ack.
func postBinary(t *testing.T, url, tenant string, batch []int64) (uint32, int64, int) {
	t.Helper()
	frame, err := runio.AppendDataFrame(nil, runio.Int64Codec{}, tenant, batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/ingest", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	h, err := runio.ReadFrameHeader(resp.Body, 0)
	if err != nil {
		t.Fatalf("binary ingest response: %v (status %d)", err, resp.StatusCode)
	}
	payload, err := runio.ReadFramePayload(resp.Body, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != runio.FrameAck {
		t.Fatalf("response frame type %d, want ack", h.Type)
	}
	count, n, err := runio.DecodeAckPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	return count, n, resp.StatusCode
}

// TestCrossFormatEquivalence is the wire protocol's correctness anchor:
// the same element stream, in the same batch boundaries, ingested via
// JSON HTTP and binary HTTP yields byte-identical checkpoints. Concurrent
// queriers run against every engine during ingest so -race exercises the
// snapshot path, which selects each stripe's partial run in place.
func TestCrossFormatEquivalence(t *testing.T) {
	batches := wireBatches(20_000, 1500) // ragged tail batch on purpose

	engines := map[string]*Engine[int64]{
		"json-http":   newWireEngine(t),
		"binary-http": newWireEngine(t),
	}

	// Concurrent queriers: they must not perturb ingest state (snapshots
	// are read-only), and -race watches them against the rebuilds.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func(e *Engine[int64]) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Quantile(0.5); err != nil && !errors.Is(err, core.ErrEmpty) {
					t.Error(err)
					return
				}
			}
		}(e)
	}

	// JSON HTTP.
	jsrv := httptest.NewServer(NewHandler(engines["json-http"], Int64Key))
	defer jsrv.Close()
	for _, b := range batches {
		postJSONBatch(t, jsrv.URL, b)
	}

	// Binary HTTP.
	bsrv := httptest.NewServer(NewHandlerCodec(engines["binary-http"], Int64Key, runio.Int64Codec{}, HandlerOptions{}))
	defer bsrv.Close()
	for _, b := range batches {
		count, _, status := postBinary(t, bsrv.URL, "", b)
		if status != http.StatusOK || int(count) != len(b) {
			t.Fatalf("binary http: status %d acked %d, want 200/%d", status, count, len(b))
		}
	}

	close(stop)
	wg.Wait()

	want := checkpointBytes(t, engines["json-http"])
	for name, e := range engines {
		if got := checkpointBytes(t, e); !bytes.Equal(got, want) {
			t.Errorf("%s checkpoint differs from json-http: %d vs %d bytes", name, len(got), len(want))
		}
		if n := e.N(); n != 20_000 {
			t.Errorf("%s: n=%d, want 20000", name, n)
		}
	}
}

// TestBinaryHTTPProtocolErrors exercises the binary route's rejection
// paths: wrong codec kind, tenant mismatch, corrupt frames, no codec.
func TestBinaryHTTPProtocolErrors(t *testing.T) {
	e := newWireEngine(t)
	srv := httptest.NewServer(NewHandlerCodec(e, Int64Key, runio.Int64Codec{}, HandlerOptions{}))
	defer srv.Close()

	post := func(url string, body []byte) (int, string) {
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		h, err := runio.ReadFrameHeader(resp.Body, 0)
		if err != nil {
			return resp.StatusCode, ""
		}
		payload, err := runio.ReadFramePayload(resp.Body, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if h.Type == runio.FrameAck {
			// Skip the ack; the nack (if any) carries the message.
			h2, err := runio.ReadFrameHeader(resp.Body, 0)
			if err != nil {
				return resp.StatusCode, ""
			}
			payload, err = runio.ReadFramePayload(resp.Body, h2, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		_, msg, err := runio.DecodeNackPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, msg
	}

	// Wrong codec kind.
	f32, err := runio.AppendDataFrame(nil, runio.Float32Codec{}, "", []float32{1})
	if err != nil {
		t.Fatal(err)
	}
	if status, msg := post(srv.URL+"/ingest", f32); status != http.StatusBadRequest || !strings.Contains(msg, "codec kind") {
		t.Errorf("wrong kind: %d %q", status, msg)
	}

	// Tenant mismatch on a single-engine handler.
	named, err := runio.AppendDataFrame(nil, runio.Int64Codec{}, "other", []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if status, msg := post(srv.URL+"/ingest", named); status != http.StatusBadRequest || !strings.Contains(msg, "tenant") {
		t.Errorf("tenant mismatch: %d %q", status, msg)
	}

	// Tenant mismatch on a registry handler: the frame names another
	// tenant than the /t/{tenant} route.
	reg, err := NewRegistry(RegistryOptions[int64]{
		Defaults: Options{Config: wireCfg, Stripes: 1},
		Codec:    runio.Int64Codec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	lat, err := reg.Create("lat", nil)
	if err != nil {
		t.Fatal(err)
	}
	rsrv := httptest.NewServer(NewRegistryHandler(reg, Int64Key, HandlerOptions{}))
	defer rsrv.Close()
	if status, msg := post(rsrv.URL+"/t/lat/ingest", named); status != http.StatusBadRequest || !strings.Contains(msg, "tenant") {
		t.Errorf("registry tenant mismatch: %d %q", status, msg)
	}
	if n := lat.N(); n != 0 {
		t.Errorf("mismatched frame ingested %d elements into the route tenant", n)
	}

	// Corrupt frames: broken magic, flipped payload byte.
	good, err := runio.AppendDataFrame(nil, runio.Int64Codec{}, "", []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(good)
	bad[1] = 'X'
	if status, msg := post(srv.URL+"/ingest", bad); status != http.StatusBadRequest || !strings.Contains(msg, "magic") {
		t.Errorf("bad magic: %d %q", status, msg)
	}
	bad = bytes.Clone(good)
	bad[runio.FrameHeaderSize] ^= 1
	if status, msg := post(srv.URL+"/ingest", bad); status != http.StatusBadRequest || !strings.Contains(msg, "checksum") {
		t.Errorf("corrupt payload: %d %q", status, msg)
	}

	// Nothing from the failed requests may have ingested.
	if n := e.N(); n != 0 {
		t.Errorf("rejected frames ingested %d elements", n)
	}

	// Handler without a codec answers 415.
	plain := httptest.NewServer(NewHandler(e, Int64Key))
	defer plain.Close()
	resp, err := http.Post(plain.URL+"/ingest", "application/octet-stream", bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("no-codec handler: %d, want 415", resp.StatusCode)
	}
}

// TestBinaryHTTPBackpressure: a shed binary ingest answers 429 with a
// Retry-After header and a nack frame, and retains nothing.
func TestBinaryHTTPBackpressure(t *testing.T) {
	e := newWireEngine(t)
	srv := httptest.NewServer(NewHandlerCodec(e, Int64Key, runio.Int64Codec{}, HandlerOptions{
		// Below one full run, so pending partial-run bytes trip it and no
		// rotation can heal — a deterministic shed.
		MaxPendingBytes: 512,
		RetryAfter:      3 * time.Second,
	}))
	defer srv.Close()

	batch := make([]int64, 600)
	frame, err := runio.AppendDataFrame(nil, runio.Int64Codec{}, "", batch)
	if err != nil {
		t.Fatal(err)
	}
	// First request lands (shed checks pending before ingesting).
	resp, err := http.Post(srv.URL+"/ingest", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first binary ingest: %d", resp.StatusCode)
	}
	// Second request sheds: 600 elements × 8B pending > 512.
	resp, err = http.Post(srv.URL+"/ingest", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second binary ingest: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After %q, want 3", ra)
	}
	h, err := runio.ReadFrameHeader(resp.Body, 0)
	if err != nil || h.Type != runio.FrameAck {
		t.Fatalf("429 body: first frame %v type %d, want ack", err, h.Type)
	}
	payload, err := runio.ReadFramePayload(resp.Body, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if count, _, _ := runio.DecodeAckPayload(payload); count != 0 {
		t.Errorf("shed request acked %d elements", count)
	}
	h, err = runio.ReadFrameHeader(resp.Body, 0)
	if err != nil || h.Type != runio.FrameNack {
		t.Fatalf("429 body: second frame %v type %d, want nack", err, h.Type)
	}
	payload, err = runio.ReadFramePayload(resp.Body, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	retry, _, err := runio.DecodeNackPayload(payload)
	if err != nil || retry != 3 {
		t.Errorf("nack retry %d err %v, want 3", retry, err)
	}
	if n := e.N(); n != 600 {
		t.Errorf("n=%d, want 600 (only the first batch)", n)
	}
}

// newFloat64Server serves a fresh single-stripe float64 engine with JSON
// and binary ingest.
func newFloat64Server(t *testing.T) (*Engine[float64], *httptest.Server) {
	t.Helper()
	e, err := New[float64](Options{Config: wireCfg, Stripes: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandlerCodec(e, Float64Key, runio.Float64Codec{}, HandlerOptions{}))
	t.Cleanup(srv.Close)
	return e, srv
}

// TestFloat64JSONIngestRejectsNaN: NaN keys have no rank, so a float64
// engine answers 400 to a JSON batch holding one and leaves n unchanged.
func TestFloat64JSONIngestRejectsNaN(t *testing.T) {
	e, srv := newFloat64Server(t)
	postJSON := func(body string) (int, string) {
		resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if status, body := postJSON(`{"keys":[1.5,2.5,3.5]}`); status != http.StatusOK {
		t.Fatalf("good JSON batch: %d %s", status, body)
	}
	if status, body := postJSON(`{"keys":[4.5,"NaN",5.5]}`); status != http.StatusBadRequest || !strings.Contains(body, "NaN") {
		t.Errorf("JSON batch with NaN: %d %s, want 400 naming NaN", status, body)
	}
	if n := e.N(); n != 3 {
		t.Errorf("after the JSON NaN batch: n=%d, want 3", n)
	}
}

// TestFloat64SelectivityRejectsNaN: a NaN range bound is not a key, so
// the selectivity route answers 400 instead of estimating from it.
func TestFloat64SelectivityRejectsNaN(t *testing.T) {
	e, srv := newFloat64Server(t)
	if err := e.IngestBatch([]float64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	getJSON(t, srv.URL+"/selectivity?a=1&b=100", http.StatusOK)
	getJSON(t, srv.URL+"/selectivity?a=NaN&b=100", http.StatusBadRequest)
	getJSON(t, srv.URL+"/selectivity?a=1&b=NaN", http.StatusBadRequest)
}

// TestFloat64BinaryIngestRejectsNaN: a binary frame holding a NaN is
// nacked with 400 and not ingested; in a multi-frame body the frames
// before it stay acked.
func TestFloat64BinaryIngestRejectsNaN(t *testing.T) {
	e, srv := newFloat64Server(t)
	good, err := runio.AppendDataFrame(nil, runio.Float64Codec{}, "", []float64{6, 7})
	if err != nil {
		t.Fatal(err)
	}
	withNaN, err := runio.AppendDataFrame(nil, runio.Float64Codec{}, "", []float64{8, math.NaN(), 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		body         []byte
		acked, wantN int64
	}{
		{"NaN frame", withNaN, 0, 0},
		{"good frame, then NaN frame", append(bytes.Clone(good), withNaN...), 2, 2},
	} {
		resp, err := http.Post(srv.URL+"/ingest", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if got := e.N(); got != tc.wantN {
			t.Errorf("%s: n=%d, want %d", tc.name, got, tc.wantN)
		}
		body := bytes.NewReader(raw)
		h, err := runio.ReadFrameHeader(body, 0)
		if err != nil || h.Type != runio.FrameAck {
			t.Fatalf("%s: first frame %v type %d, want ack", tc.name, err, h.Type)
		}
		payload, err := runio.ReadFramePayload(body, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		count, n, err := runio.DecodeAckPayload(payload)
		if err != nil || int64(count) != tc.acked || n != tc.wantN {
			t.Errorf("%s: ack count=%d n=%d err=%v, want %d and %d", tc.name, count, n, err, tc.acked, tc.wantN)
		}
		h, err = runio.ReadFrameHeader(body, 0)
		if err != nil || h.Type != runio.FrameNack {
			t.Fatalf("%s: second frame %v type %d, want nack", tc.name, err, h.Type)
		}
		payload, err = runio.ReadFramePayload(body, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, msg, err := runio.DecodeNackPayload(payload); err != nil || !strings.Contains(msg, "NaN") {
			t.Errorf("%s: nack %q err %v, want a message naming NaN", tc.name, msg, err)
		}
	}
}
