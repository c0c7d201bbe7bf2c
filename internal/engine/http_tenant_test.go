package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"opaq/internal/core"
	"opaq/internal/runio"
)

func newRegistryServer(t *testing.T, hopts HandlerOptions) (*Registry[int64], *httptest.Server) {
	t.Helper()
	r, err := NewRegistry(RegistryOptions[int64]{
		Defaults: Options{
			Config:  core.Config{RunLen: 256, SampleSize: 32},
			Stripes: 2,
			Buckets: 16,
		},
		CheckpointDir: t.TempDir(),
		Codec:         runio.Int64Codec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	srv := httptest.NewServer(NewRegistryHandler(r, Int64Key, hopts))
	t.Cleanup(srv.Close)
	return r, srv
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPMultiTenant drives the tenant-routed API end to end: admin
// create, per-tenant ingest and query isolation, the default-tenant alias
// at the root, list and delete.
func TestHTTPMultiTenant(t *testing.T) {
	_, srv := newRegistryServer(t, HandlerOptions{})

	// Root routes 404 until the default tenant exists.
	getJSON(t, srv.URL+"/stats", http.StatusNotFound)

	// Create "default" and two columns, one with its own windowed config.
	for _, body := range []string{
		`{"name":"default"}`,
		`{"name":"orders.price"}`,
		`{"name":"req.latency","m":128,"s":16,"retain":"last_k","retain_k":2,"epoch_max_elems":512}`,
	} {
		resp := postJSON(t, srv.URL+"/admin/tenants", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d", body, resp.StatusCode)
		}
	}
	// Duplicate create → 409; bad name → 400; bad retain → 400.
	for body, want := range map[string]int{
		`{"name":"default"}`:                http.StatusConflict,
		`{"name":"../oops"}`:                http.StatusBadRequest,
		`{"name":"x","retain":"sometimes"}`: http.StatusBadRequest,
		`{"name":"y","retain":"last_k"}`:    http.StatusBadRequest, // K missing
		`{"name":"z","m":100,"s":33}`:       http.StatusBadRequest, // s ∤ m
	} {
		resp := postJSON(t, srv.URL+"/admin/tenants", body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("create %s: status %d, want %d", body, resp.StatusCode, want)
		}
	}

	// Disjoint ingests; each tenant answers only from its own keys.
	ingest := func(path string, base int64) {
		var keys []string
		for i := int64(0); i < 600; i++ {
			keys = append(keys, fmt.Sprintf("%d", base+i%100))
		}
		resp := postJSON(t, srv.URL+path+"/ingest", `{"keys":["`+strings.Join(keys, `","`)+`"]}`)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: status %d", path, resp.StatusCode)
		}
	}
	ingest("/t/orders.price", 1_000_000)
	ingest("/t/req.latency", 5)
	ingest("", 77_000) // root alias → default tenant

	for path, lo := range map[string]int64{
		"/t/orders.price": 1_000_000,
		"/t/req.latency":  5,
		"":                77_000,
		"/t/default":      77_000, // same engine as the root alias
	} {
		q := getJSON(t, srv.URL+path+"/quantile?phi=0.5", http.StatusOK)
		var lower int64
		fmt.Sscanf(q["lower"].(string), "%d", &lower)
		if lower < lo || lower >= lo+100 {
			t.Errorf("%s median lower = %d, want in [%d, %d)", path, lower, lo, lo+100)
		}
	}
	// Unknown tenant → 404 on every route.
	getJSON(t, srv.URL+"/t/nope/quantile?phi=0.5", http.StatusNotFound)
	getJSON(t, srv.URL+"/t/nope/stats", http.StatusNotFound)
	resp := postJSON(t, srv.URL+"/t/nope/ingest", `{"keys":[1]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ingest into unknown tenant: status %d", resp.StatusCode)
	}

	// The windowed tenant's epoch policy ran: 600 elements with
	// MaxElems 512, RunLen 128 → at least one sealed epoch, visible in
	// per-tenant stats.
	st := getJSON(t, srv.URL+"/t/req.latency/stats", http.StatusOK)
	if st["sealed_epochs"].(float64) == 0 {
		t.Errorf("windowed tenant stats: %+v, want sealed epochs", st)
	}

	// Admin list reports all tenants with stats and epoch rings.
	list := getJSON(t, srv.URL+"/admin/tenants", http.StatusOK)
	if got := len(list["tenants"].([]any)); got != 3 {
		t.Errorf("admin list has %d tenants, want 3", got)
	}

	// Delete and the tenant is gone (404), but others keep serving.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/admin/tenants/req.latency", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	getJSON(t, srv.URL+"/t/req.latency/stats", http.StatusNotFound)
	getJSON(t, srv.URL+"/t/orders.price/stats", http.StatusOK)
}

// TestHTTPHealthz pins the healthz shape on both handler flavors:
// liveness plus per-tenant epoch/ingest stats.
func TestHTTPHealthz(t *testing.T) {
	// Single-engine handler.
	e, srv := newTestServer(t)
	if err := e.IngestBatch([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	h := getJSON(t, srv.URL+"/healthz", http.StatusOK)
	if h["status"] != "ok" {
		t.Fatalf("healthz status = %v", h["status"])
	}
	def := h["tenants"].(map[string]any)["default"].(map[string]any)
	if def["n"].(float64) != 3 || def["pending_elems"].(float64) != 3 {
		t.Fatalf("healthz default tenant stats: %+v", def)
	}

	// Registry handler: one entry per tenant.
	reg, rsrv := newRegistryServer(t, HandlerOptions{})
	if _, err := reg.Create("a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("b", nil); err != nil {
		t.Fatal(err)
	}
	eng, err := reg.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestBatch(make([]int64, 512)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rotate(); err != nil {
		t.Fatal(err)
	}
	h = getJSON(t, rsrv.URL+"/healthz", http.StatusOK)
	tenants := h["tenants"].(map[string]any)
	if len(tenants) != 2 {
		t.Fatalf("healthz tenants: %+v", tenants)
	}
	if b := tenants["b"].(map[string]any); b["epochs"].(float64) != 1 || b["n"].(float64) != 512 {
		t.Fatalf("healthz tenant b: %+v", b)
	}
}

// TestHTTPBackpressure pins the two ingest protections: 429 + Retry-After
// while unsealed bytes exceed the bound, and 413 for oversized bodies.
func TestHTTPBackpressure(t *testing.T) {
	reg, srv := newRegistryServer(t, HandlerOptions{
		MaxBodyBytes:    256,
		MaxPendingBytes: 1024, // 128 int64s
	})
	// One stripe with runs longer than the bound: the backlog below is
	// all partial-run — the one kind of pending state no rotation can
	// seal — so shedding is deterministic; and padding to the run
	// boundary drains the single buffer exactly.
	if _, err := reg.Create(DefaultTenant, &Options{
		Config:  core.Config{RunLen: 512, SampleSize: 64},
		Stripes: 1,
	}); err != nil {
		t.Fatal(err)
	}
	eng, err := reg.Get(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}

	// A backlog of completed runs over the bound does NOT shed: the shed
	// path seals it first (self-healing when the engine's own triggers
	// haven't fired), and the ingest proceeds.
	if err := eng.IngestBatch(make([]int64, 1024)); err != nil { // 2 full runs, 8192 bytes pending
		t.Fatal(err)
	}
	small := `{"keys":[1,2,3,4,5,6,7,8,9,10]}`
	resp := postJSON(t, srv.URL+"/ingest", small)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sealable backlog shed with status %d, want a healing rotation + 200", resp.StatusCode)
	}
	if st := eng.Stats(); st.SealedEpochs == 0 {
		t.Fatalf("shed path did not seal the sealable backlog: %+v", st)
	}

	// Partial-run backlog (unsealable) does shed once it crosses the
	// bound.
	overloaded := false
	for i := 0; i < 30; i++ {
		resp := postJSON(t, srv.URL+"/ingest", small)
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if body["pending_bytes"].(float64) < 1024 {
				t.Errorf("shed below the bound: %+v", body)
			}
			overloaded = true
		default:
			t.Fatalf("ingest %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
		if overloaded {
			break
		}
	}
	if !overloaded {
		t.Fatal("partial-run pending bytes crossed 1024 without a 429")
	}
	// Queries still work while ingest is shed (load shedding, not an
	// outage), and a rotation that seals the backlog re-opens ingest.
	getJSON(t, srv.URL+"/quantile?phi=0.5", http.StatusOK)
	// Fill to the run boundary so the seal can drain everything pending.
	if pad := int(512 - eng.PendingElems()%512); pad != 512 {
		if err := eng.IngestBatch(make([]int64, pad)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Rotate(); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, srv.URL+"/ingest", small)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-rotation ingest: status %d, want 200", resp.StatusCode)
	}

	// A body over MaxBodyBytes → 413, and nothing is ingested.
	before := eng.N()
	var big bytes.Buffer
	big.WriteString(`{"keys":[`)
	for i := 0; i < 200; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		fmt.Fprintf(&big, "%d", i)
	}
	big.WriteString(`]}`)
	resp = postJSON(t, srv.URL+"/ingest", big.String())
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if eng.N() != before {
		t.Fatalf("oversized body ingested %d keys", eng.N()-before)
	}
}

// TestHTTPAdminCreateRejectsUndrainableTenant: with MaxPendingBytes set,
// admin create refuses a tenant whose partial runs alone can cross the
// bound (stripes × (m−1) × 8 bytes for int64), because such a tenant is
// shed with 429 forever once they do. A rejected create answers 400 and
// leaves neither a tenant nor an options sidecar behind.
func TestHTTPAdminCreateRejectsUndrainableTenant(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewRegistry(RegistryOptions[int64]{
		Defaults: Options{
			Config:  core.Config{RunLen: 4096, SampleSize: 64},
			Stripes: 1,
			Epoch:   EpochPolicy{MaxElems: 4096},
		},
		CheckpointDir: dir,
		Codec:         runio.Int64Codec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	srv := httptest.NewServer(NewRegistryHandler(reg, Int64Key, HandlerOptions{MaxPendingBytes: 65536}))
	t.Cleanup(srv.Close)

	for _, body := range []string{
		`{"name":"big","m":1048576,"s":1024}`, // 1 × 1048575 × 8 bytes
		`{"name":"wide","stripes":64}`,        // 64 × 4095 × 8 bytes
	} {
		resp := postJSON(t, srv.URL+"/admin/tenants", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("create %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	// 2 × 4095 × 8 = 65520 bytes, just inside the bound.
	resp := postJSON(t, srv.URL+"/admin/tenants", `{"name":"ok","stripes":2}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create ok: status %d, want 201", resp.StatusCode)
	}

	list := getJSON(t, srv.URL+"/admin/tenants", http.StatusOK)["tenants"].([]any)
	if len(list) != 1 || list[0].(map[string]any)["name"] != "ok" {
		t.Fatalf("tenants after creates: %v, want only ok", list)
	}
	for _, name := range []string{"big", "wide"} {
		if _, err := os.Stat(reg.optionsPath(name)); !os.IsNotExist(err) {
			t.Errorf("rejected tenant %q left an options sidecar (stat: %v)", name, err)
		}
	}
}

// TestHTTPAdminCreateSizeLimits: admin create answers 400 for a tenant
// past any size limit (more than 1,024 stripes, run buffers above
// 256 MiB, more than 4,096 histogram buckets) and leaves neither a
// tenant nor an options sidecar behind; a tenant at the stripe and bucket
// limits is created. The run-buffer limit is checked at its edge directly,
// since a tenant there allocates 256 MiB.
func TestHTTPAdminCreateSizeLimits(t *testing.T) {
	reg, srv := newRegistryServer(t, HandlerOptions{})
	probes := map[string]string{
		"stripes": `{"name":"stripes","stripes":1025,"m":64,"s":32}`,
		"runs":    `{"name":"runs","stripes":2,"m":16777280,"s":64}`, // 2 × (16 Mi + 64) × 8 bytes
		"huge":    `{"name":"huge","m":1099511627776,"s":1}`,         // 8 TiB per stripe
		"buckets": `{"name":"buckets","buckets":4097}`,
	}
	for name, body := range probes {
		resp := postJSON(t, srv.URL+"/admin/tenants", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("create %s: status %d, want 400", body, resp.StatusCode)
		}
		if _, err := os.Stat(reg.optionsPath(name)); !os.IsNotExist(err) {
			t.Errorf("rejected tenant %q left an options sidecar (stat: %v)", name, err)
		}
	}
	resp := postJSON(t, srv.URL+"/admin/tenants", `{"name":"edge","stripes":1024,"m":64,"s":32,"buckets":4096}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create at the limits: status %d, want 201", resp.StatusCode)
	}
	list := getJSON(t, srv.URL+"/admin/tenants", http.StatusOK)["tenants"].([]any)
	if len(list) != 1 || list[0].(map[string]any)["name"] != "edge" {
		t.Fatalf("tenants after creates: %v, want only edge", list)
	}

	edge := Options{Config: core.Config{RunLen: 32768, SampleSize: 64}, Stripes: 1024}
	if err := checkCreateLimits[int64](edge); err != nil {
		t.Fatalf("1024 stripes × 32768 × 8 bytes = 256 MiB: %v, want nil", err)
	}
	edge.Config.RunLen++
	if err := checkCreateLimits[int64](edge); !errors.Is(err, core.ErrConfig) {
		t.Fatalf("one key past 256 MiB: %v, want ErrConfig", err)
	}
	if err := checkCreateLimits[int32](edge); err != nil {
		t.Fatalf("int32 keys at 128 MiB: %v, want nil", err)
	}
}
