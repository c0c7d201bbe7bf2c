package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"opaq/internal/core"
	"opaq/internal/engine"
	"opaq/internal/runio"
)

// testWorker is one worker process in miniature: an engine registry with
// a checkpoint directory behind the registry HTTP handler, on a fixed
// address so it can be killed and restarted in place.
type testWorker struct {
	t    *testing.T
	addr string
	opts engine.RegistryOptions[int64]
	reg  *engine.Registry[int64]
	srv  *http.Server
}

func testWorkerDefaults() engine.Options {
	return engine.Options{
		Config:  core.Config{RunLen: 512, SampleSize: 64},
		Stripes: 2,
	}
}

func newTestWorker(t *testing.T) *testWorker {
	t.Helper()
	w := &testWorker{
		t: t,
		opts: engine.RegistryOptions[int64]{
			Defaults:      testWorkerDefaults(),
			CheckpointDir: t.TempDir(),
			Codec:         runio.Int64Codec{},
		},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.addr = ln.Addr().String()
	w.boot(ln)
	t.Cleanup(func() {
		if w.srv != nil {
			w.srv.Close()
		}
		if w.reg != nil {
			w.reg.Close()
		}
	})
	return w
}

// boot builds a fresh registry over the checkpoint dir and serves on ln.
func (w *testWorker) boot(ln net.Listener) {
	w.t.Helper()
	reg, err := engine.NewRegistry(w.opts)
	if err != nil {
		w.t.Fatal(err)
	}
	w.reg = reg
	w.srv = &http.Server{Handler: engine.NewRegistryHandler(reg, engine.Int64Key, engine.HandlerOptions{})}
	go w.srv.Serve(ln)
}

func (w *testWorker) url() string { return "http://" + w.addr }

// stopHTTP kills only the HTTP server — the process equivalent of a
// network partition; the registry (and its data) stays alive for restart.
func (w *testWorker) stopHTTP() {
	w.t.Helper()
	w.srv.Close()
	w.srv = nil
}

// restartHTTP re-serves the live registry on the worker's address.
func (w *testWorker) restartHTTP() {
	w.t.Helper()
	ln := w.relisten()
	w.srv = &http.Server{Handler: engine.NewRegistryHandler(w.reg, engine.Int64Key, engine.HandlerOptions{})}
	go w.srv.Serve(ln)
}

// kill is a graceful worker shutdown: checkpoint everything, then tear
// down the server and the registry (rotation timers included).
func (w *testWorker) kill() {
	w.t.Helper()
	if err := w.reg.CheckpointAll(); err != nil {
		w.t.Fatal(err)
	}
	w.srv.Close()
	w.srv = nil
	w.reg.Close()
	w.reg = nil
}

// restart boots a fresh registry from the checkpoint dir — the process
// equivalent of the worker coming back after a crash+redeploy — and
// serves it on the same address.
func (w *testWorker) restart() {
	w.t.Helper()
	w.boot(w.relisten())
}

// relisten rebinds the worker's fixed address, retrying briefly while the
// kernel releases it.
func (w *testWorker) relisten() net.Listener {
	w.t.Helper()
	var ln net.Listener
	var err error
	for try := 0; try < 50; try++ {
		if ln, err = net.Listen("tcp", w.addr); err == nil {
			return ln
		}
		time.Sleep(20 * time.Millisecond)
	}
	w.t.Fatalf("re-listening on %s: %v", w.addr, err)
	return nil
}

func testCoordinator(t *testing.T, spread int, workers ...*testWorker) *Coordinator[int64] {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.url()
	}
	c, err := New(Options[int64]{
		Workers: urls,
		Spread:  spread,
		Codec:   runio.Int64Codec{},
		Parse:   engine.Int64Key,
		Client:  &WorkerClient{HTTP: &http.Client{Timeout: 2 * time.Second}, Backoff: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// doJSON drives the coordinator handler directly (no extra listener) and
// decodes the JSON response.
func doJSON(t *testing.T, h http.Handler, method, path string, body []byte) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, "http://coord"+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := newRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if len(rec.body.Bytes()) > 0 && json.Unmarshal(rec.body.Bytes(), &out) != nil {
		out = nil
	}
	return rec.status, out
}

// recorder is a minimal ResponseWriter; httptest.NewRecorder would do,
// but this keeps the header/body we care about explicit.
type recorder struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func newRecorder() *recorder { return &recorder{header: http.Header{}, status: 200} }

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *recorder) WriteHeader(status int)      { r.status = status }

func ingestJSON(t *testing.T, h http.Handler, tenant string, keys []int64) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"keys": keys})
	if err != nil {
		t.Fatal(err)
	}
	status, out := doJSON(t, h, http.MethodPost, "/t/"+tenant+"/ingest", body)
	if status != http.StatusOK {
		t.Fatalf("ingest status %d: %v", status, out)
	}
}

func runAlignedBatch(runLen, runs int, next *int64) []int64 {
	batch := make([]int64, runLen*runs)
	for i := range batch {
		batch[i] = (*next * 2654435761) % (1 << 40) // deterministic scatter
		*next++
	}
	return batch
}

// TestCoordinatorDegradation pins the satellite requirement: with one
// owner down, scatter-gather answers 200 with partial:true and the merged
// summary of the survivors; after the worker rejoins, answers are whole
// again. With every owner down the tenant is unavailable (503), and an
// unknown tenant is 404 regardless of fleet health.
func TestCoordinatorDegradation(t *testing.T) {
	w1, w2 := newTestWorker(t), newTestWorker(t)
	coord := testCoordinator(t, 2, w1, w2)
	h := coord.Handler()

	status, out := doJSON(t, h, http.MethodPost, "/admin/tenants", []byte(`{"name":"metrics"}`))
	if status != http.StatusCreated {
		t.Fatalf("create status %d: %v", status, out)
	}
	// Four run-aligned batches round-robin across both owners, so each
	// holds data when the other goes down.
	var next int64 = 1
	for i := 0; i < 4; i++ {
		ingestJSON(t, h, "metrics", runAlignedBatch(512, 1, &next))
	}

	status, out = doJSON(t, h, http.MethodGet, "/t/metrics/quantile?phi=0.5", nil)
	if status != http.StatusOK || out["partial"] != false {
		t.Fatalf("healthy quantile: status %d, %v", status, out)
	}
	wholeN := int64(0)
	if status, st := doJSON(t, h, http.MethodGet, "/t/metrics/stats", nil); status == http.StatusOK {
		wholeN = int64(st["n"].(float64))
	}
	if wholeN != 4*512 {
		t.Fatalf("healthy n = %d, want %d", wholeN, 4*512)
	}

	// Partition one owner away.
	w2.stopHTTP()
	status, out = doJSON(t, h, http.MethodGet, "/t/metrics/quantile?phi=0.5", nil)
	if status != http.StatusOK {
		t.Fatalf("degraded quantile status %d: %v", status, out)
	}
	if out["partial"] != true {
		t.Fatalf("degraded quantile not flagged partial: %v", out)
	}
	status, st := doJSON(t, h, http.MethodGet, "/t/metrics/stats", nil)
	if status != http.StatusOK || st["partial"] != true {
		t.Fatalf("degraded stats: status %d, %v", status, st)
	}
	if n := int64(st["n"].(float64)); n <= 0 || n >= wholeN {
		t.Fatalf("degraded n = %d, want a strict non-empty subset of %d", n, wholeN)
	}
	// Ingest during the partition fails over to the survivor.
	ingestJSON(t, h, "metrics", runAlignedBatch(512, 1, &next))

	status, hz := doJSON(t, h, http.MethodGet, "/healthz", nil)
	if status != http.StatusOK || hz["status"] != "degraded" {
		t.Fatalf("healthz during partition: status %d, %v", status, hz)
	}
	if hz["build"] == nil {
		t.Fatal("healthz missing build info")
	}

	// The worker rejoins: answers are whole again and include the
	// failover batch.
	w2.restartHTTP()
	status, out = doJSON(t, h, http.MethodGet, "/t/metrics/quantile?phi=0.5", nil)
	if status != http.StatusOK || out["partial"] != false {
		t.Fatalf("recovered quantile: status %d, %v", status, out)
	}
	if status, st := doJSON(t, h, http.MethodGet, "/t/metrics/stats", nil); status != http.StatusOK ||
		int64(st["n"].(float64)) != wholeN+512 {
		t.Fatalf("recovered stats: status %d, %v", status, st)
	}
	if status, hz := doJSON(t, h, http.MethodGet, "/healthz", nil); status != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz after recovery: status %d, %v", status, hz)
	}

	// Unknown tenant: 404 regardless of fleet health.
	if status, _ := doJSON(t, h, http.MethodGet, "/t/nosuch/quantile?phi=0.5", nil); status != http.StatusNotFound {
		t.Fatalf("unknown tenant status %d, want 404", status)
	}

	// Every owner down: unavailable, not a silent empty answer.
	w1.stopHTTP()
	w2.stopHTTP()
	if status, out := doJSON(t, h, http.MethodGet, "/t/metrics/quantile?phi=0.5", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("all-down quantile status %d (%v), want 503", status, out)
	}
}

// TestCoordinatorAdmin drives the admin surface end to end: create places
// the tenant on its owners (and only them), list unions the fleet,
// delete sweeps every worker.
func TestCoordinatorAdmin(t *testing.T) {
	w1, w2, w3 := newTestWorker(t), newTestWorker(t), newTestWorker(t)
	coord := testCoordinator(t, 1, w1, w2, w3)
	h := coord.Handler()

	for _, name := range []string{"alpha", "beta", "gamma", "delta"} {
		status, out := doJSON(t, h, http.MethodPost, "/admin/tenants",
			[]byte(fmt.Sprintf(`{"name":%q}`, name)))
		if status != http.StatusCreated {
			t.Fatalf("create %s: status %d %v", name, status, out)
		}
		// Idempotent retry: the duplicate create is absorbed.
		if status, _ := doJSON(t, h, http.MethodPost, "/admin/tenants",
			[]byte(fmt.Sprintf(`{"name":%q}`, name))); status != http.StatusCreated {
			t.Fatalf("re-create %s: status %d", name, status)
		}
	}
	status, out := doJSON(t, h, http.MethodGet, "/admin/tenants", nil)
	if status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	tenants := out["tenants"].([]any)
	if len(tenants) != 4 {
		t.Fatalf("list has %d tenants: %v", len(tenants), tenants)
	}
	// Each tenant lives exactly on its owner set.
	for _, e := range tenants {
		entry := e.(map[string]any)
		name := entry["name"].(string)
		owners := entry["owners"].([]any)
		if len(owners) != 1 {
			t.Fatalf("tenant %s owners = %v, want 1 (spread 1)", name, owners)
		}
		placed := 0
		for _, w := range []*testWorker{w1, w2, w3} {
			if _, err := w.reg.Get(name); err == nil {
				placed++
				if w.url() != owners[0].(string) {
					t.Errorf("tenant %s placed on %s, owner is %v", name, w.url(), owners[0])
				}
			}
		}
		if placed != 1 {
			t.Errorf("tenant %s exists on %d workers, want 1", name, placed)
		}
	}

	// An escaped '?' must not reach the worker URL as a query string,
	// where it would delete "alpha": invalid names answer 400 and delete
	// nothing.
	if status, _ := doJSON(t, h, http.MethodDelete, "/admin/tenants/alpha%3Fx", nil); status != http.StatusBadRequest {
		t.Fatalf("delete of an invalid name: status %d, want 400", status)
	}
	if status, out := doJSON(t, h, http.MethodGet, "/admin/tenants", nil); status != http.StatusOK ||
		len(out["tenants"].([]any)) != 4 {
		t.Fatalf("list after the invalid delete: %v", out)
	}
	if status, _ := doJSON(t, h, http.MethodDelete, "/admin/tenants/alpha", nil); status != http.StatusOK {
		t.Fatalf("delete status %d", status)
	}
	if status, _ := doJSON(t, h, http.MethodDelete, "/admin/tenants/alpha", nil); status != http.StatusNotFound {
		t.Fatalf("double delete status %d, want 404", status)
	}
	if status, out := doJSON(t, h, http.MethodGet, "/admin/tenants", nil); status != http.StatusOK ||
		len(out["tenants"].([]any)) != 3 {
		t.Fatalf("list after delete: %v", out)
	}
}

// TestCoordinatorMatchesWorkerSurface sends one table of reads, malformed
// ones included, to a worker's registry handler and to a spread-1
// coordinator in front of it: both tiers serve the same read routes, so
// every status must match, and every 200 body must be byte-identical.
func TestCoordinatorMatchesWorkerSurface(t *testing.T) {
	w := newTestWorker(t)
	worker := engine.NewRegistryHandler(w.reg, engine.Int64Key, engine.HandlerOptions{})
	coord := testCoordinator(t, 1, w).Handler()
	for _, name := range []string{"data", "empty"} {
		if status, out := doJSON(t, coord, http.MethodPost, "/admin/tenants",
			[]byte(fmt.Sprintf(`{"name":%q}`, name))); status != http.StatusCreated {
			t.Fatalf("create %s: status %d %v", name, status, out)
		}
	}
	var next int64 = 1
	ingestJSON(t, coord, "data", runAlignedBatch(512, 3, &next))

	for _, c := range []struct {
		path string
		want int
	}{
		{"/t/data/quantile?phi=abc", http.StatusBadRequest},
		{"/t/data/quantile?phi=1.5", http.StatusBadRequest},
		{"/t/data/quantiles?q=x", http.StatusBadRequest},
		{"/t/data/quantiles?q=4097", http.StatusBadRequest},
		{"/t/data/selectivity?a=1&b=zzz", http.StatusBadRequest},
		{"/t/-bad/quantile?phi=0.5", http.StatusBadRequest},
		{"/t/nosuch/quantile?phi=0.5", http.StatusNotFound},
		{"/t/empty/quantile?phi=0.5", http.StatusConflict},
		{"/t/empty/selectivity?a=1&b=2", http.StatusConflict},
		{"/t/data/quantile?phi=0.5", http.StatusOK},
		{"/t/data/quantiles?q=10", http.StatusOK},
		{"/t/data/selectivity?a=1000000&b=400000000000", http.StatusOK},
	} {
		fromWorker := doRaw(t, worker, http.MethodGet, c.path, "", nil)
		fromCoord := doRaw(t, coord, http.MethodGet, c.path, "", nil)
		if fromWorker.status != c.want || fromCoord.status != c.want {
			t.Errorf("%s: worker %d, coordinator %d, want %d", c.path, fromWorker.status, fromCoord.status, c.want)
			continue
		}
		if c.want == http.StatusOK && !bytes.Equal(fromWorker.body.Bytes(), fromCoord.body.Bytes()) {
			t.Errorf("%s: bodies differ:\nworker      %s\ncoordinator %s", c.path, fromWorker.body.Bytes(), fromCoord.body.Bytes())
		}
	}
}
