package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"opaq"
	"opaq/opaqclient"
)

// freePort reserves then releases an ephemeral port. The tiny window in
// which another process could grab it is acceptable in tests.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestCmdServeEndToEnd drives the full serving story: bulk-load a run
// file, ingest over HTTP, query quantiles and stats, then shut down
// gracefully via SIGTERM and verify the final checkpoint restores.
func TestCmdServeEndToEnd(t *testing.T) {
	seed := genFile(t, "uniform", 20_000)
	ckpt := filepath.Join(t.TempDir(), "state.sum")
	addr := freePort(t)

	done := make(chan error, 1)
	go func() {
		done <- cmdServe([]string{
			"-addr", addr, "-m", "2000", "-s", "200",
			"-load", seed, "-shards", "3",
			"-checkpoint", ckpt,
		})
	}()

	base := "http://" + addr
	client := &http.Client{Timeout: 2 * time.Second}
	var up bool
	for i := 0; i < 100; i++ {
		resp, err := client.Get(base + "/stats")
		if err == nil {
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
			if up {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !up {
		t.Fatal("server never became reachable")
	}

	resp, err := client.Post(base+"/ingest", "application/json",
		bytes.NewBufferString(`{"keys":[1,2,3,4,5,6,7,8,9,10]}`))
	if err != nil {
		t.Fatal(err)
	}
	var ing map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ing["n"] != 20_010 {
		t.Fatalf("n after bulk load + ingest = %d, want 20010", ing["n"])
	}

	resp, err = client.Get(base + "/quantile?phi=0.5")
	if err != nil {
		t.Fatal(err)
	}
	var q map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quantile status %d: %v", resp.StatusCode, q)
	}
	if _, err := strconv.ParseInt(q["lower"].(string), 10, 64); err != nil {
		t.Fatalf("median lower bound not an int64: %v", q["lower"])
	}

	// Graceful shutdown: drain, checkpoint, exit nil.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down within 10s of SIGTERM")
	}

	sum, err := loadSummaryFile(ckpt)
	if err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if sum.N() != 20_010 {
		t.Fatalf("checkpoint N = %d, want 20010", sum.N())
	}
}

// TestCmdServeCompact drives -compact end to end: a serving process under
// an aggressive epoch policy seals dozens of epochs, and /healthz must
// report a logarithmically bounded ring ("epochs") alongside nonzero
// "compactions" — while quantile answers keep flowing.
func TestCmdServeCompact(t *testing.T) {
	addr := freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- cmdServe([]string{
			"-addr", addr, "-m", "512", "-s", "64", "-stripes", "1",
			"-epoch", "512", "-compact",
		})
	}()
	base := "http://" + addr
	client := &http.Client{Timeout: 2 * time.Second}
	up := false
	for i := 0; i < 100 && !up; i++ {
		if resp, err := client.Get(base + "/healthz"); err == nil {
			up = resp.StatusCode == http.StatusOK
			resp.Body.Close()
		}
		if !up {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !up {
		t.Fatal("server never became healthy")
	}

	// 40 run-aligned batches: one seal each under -epoch 512.
	var keys []string
	for i := 0; i < 512; i++ {
		keys = append(keys, strconv.Itoa(i))
	}
	body := `{"keys":[` + strings.Join(keys, ",") + `]}`
	for batch := 0; batch < 40; batch++ {
		resp, err := client.Post(base+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", batch, resp.StatusCode)
		}
	}

	resp, err := client.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sealed := st["sealed_epochs"].(float64)
	ring := st["epochs"].(float64)
	compactions := st["compactions"].(float64)
	if sealed < 30 {
		t.Fatalf("only %g epochs sealed; the policy should have rotated ~40 times", sealed)
	}
	if compactions == 0 {
		t.Fatal("server never compacted despite -compact")
	}
	if ring >= sealed/2 || ring > 8 {
		t.Fatalf("ring depth %g not compacted (sealed %g)", ring, sealed)
	}
	resp, err = client.Get(base + "/quantile?phi=0.5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quantile on compacted server: status %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down within 10s of SIGTERM")
	}
}

// TestCmdServeBinaryIngest drives the wire-speed ingest path end to end:
// one serve process accepts binary frames, content-negotiated on the HTTP
// ingest route, from the opaqclient batching client, routes them to the
// default and to a named tenant, and drains cleanly on SIGTERM.
func TestCmdServeBinaryIngest(t *testing.T) {
	addr := freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- cmdServe([]string{
			"-addr", addr,
			"-m", "512", "-s", "64", "-stripes", "1",
			"-tenants", "latency",
		})
	}()
	base := "http://" + addr
	client := &http.Client{Timeout: 2 * time.Second}
	up := false
	for i := 0; i < 100 && !up; i++ {
		if resp, err := client.Get(base + "/healthz"); err == nil {
			up = resp.StatusCode == http.StatusOK
			resp.Body.Close()
		}
		if !up {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !up {
		t.Fatal("server never became healthy")
	}

	// Binary frames over HTTP into the default tenant.
	hc := opaqclient.NewHTTP(base, opaq.Int64Codec{}, opaqclient.Options{MaxBatch: 256})
	for i := int64(0); i < 1000; i++ {
		if err := hc.Add(i); err != nil {
			t.Fatalf("http add: %v", err)
		}
	}
	if err := hc.Close(); err != nil {
		t.Fatalf("http close: %v", err)
	}
	if n := hc.N(); n != 1000 {
		t.Fatalf("http client: server acked n=%d, want 1000", n)
	}

	// Binary frames over HTTP into the "latency" tenant.
	tc := opaqclient.NewHTTP(base, opaq.Int64Codec{},
		opaqclient.Options{Tenant: "latency", MaxBatch: 256})
	for i := int64(0); i < 2000; i++ {
		if err := tc.Add(i); err != nil {
			t.Fatalf("tenant add: %v", err)
		}
	}
	if err := tc.Close(); err != nil {
		t.Fatalf("tenant close: %v", err)
	}
	if n := tc.N(); n != 2000 {
		t.Fatalf("tenant client: server acked n=%d, want 2000", n)
	}

	// Each client's elements landed in its own tenant.
	statsN := func(path string) float64 {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st["n"].(float64)
	}
	if n := statsN("/stats"); n != 1000 {
		t.Fatalf("default tenant n = %g, want 1000", n)
	}
	if n := statsN("/t/latency/stats"); n != 2000 {
		t.Fatalf("latency tenant n = %g, want 2000", n)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down within 10s of SIGTERM")
	}
}

// TestCmdServeFlagValidation pins the trigger-dependency checks: retention
// and pending-bytes backpressure are inert (or a permanent 429) without an
// epoch seal trigger, so serve must refuse the combination up front.
func TestCmdServeFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-window", "4", "-retain-age", "1m"},
		{"-window", "4"},
		{"-retain-age", "1m"},
		{"-max-pending", "1048576"},
		// A bound partial-run buffers alone can cross never drains:
		// 1 stripe × (1024−1) × 8 = 8184 bytes of unsealable capacity.
		{"-max-pending", "1000", "-epoch", "4096", "-stripes", "1", "-m", "1024", "-s", "128"},
	} {
		if err := cmdServe(args); err == nil {
			t.Errorf("cmdServe(%v) = nil, want a flag-validation error", args)
		}
	}
	// With a trigger the same flags are accepted past validation (the
	// bad address proves we reached the listen step).
	err := cmdServe([]string{"-window", "4", "-epoch", "1024", "-addr", "256.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "listen") {
		t.Errorf("trigger+window should pass validation and fail at listen, got %v", err)
	}
}

// TestCmdServeRestoreSkippedWhenWarm pins the seed-vs-warm-boot rule: a
// -restore seed and a -load bulk load each land as their own epoch, so
// re-applying them on top of a default tenant already restored from
// -checkpoint-dir would double the history on every reboot. The warm
// state must win.
func TestCmdServeRestoreSkippedWhenWarm(t *testing.T) {
	dir := t.TempDir()
	seed := filepath.Join(dir, "seed.sum")
	src, err := opaq.NewEngine[int64](opaq.EngineOptions{
		Config: opaq.Config{RunLen: 512, SampleSize: 64}, Stripes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.IngestBatch(make([]int64, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := src.CheckpointFile(seed, opaq.Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	load := genFile(t, "uniform", 2048)
	ckptDir := filepath.Join(dir, "tenants")

	defaultN := func(base string) float64 {
		t.Helper()
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Tenants map[string]map[string]any `json:"tenants"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Tenants["default"]["n"].(float64)
	}
	cycle := func(wantN float64) {
		t.Helper()
		addr := freePort(t)
		done := make(chan error, 1)
		go func() {
			done <- cmdServe([]string{
				"-addr", addr, "-m", "512", "-s", "64",
				"-restore", seed, "-load", load, "-checkpoint-dir", ckptDir,
			})
		}()
		base := "http://" + addr
		client := &http.Client{Timeout: 2 * time.Second}
		up := false
		for i := 0; i < 100 && !up; i++ {
			if resp, err := client.Get(base + "/healthz"); err == nil {
				up = resp.StatusCode == http.StatusOK
				resp.Body.Close()
			}
			if !up {
				time.Sleep(50 * time.Millisecond)
			}
		}
		if !up {
			t.Fatal("server never became healthy")
		}
		if n := defaultN(base); n != wantN {
			t.Fatalf("default tenant n = %g, want %g", n, wantN)
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve exited with error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("serve did not shut down")
		}
	}
	cycle(3048) // cold boot: seed restored, file bulk-loaded
	cycle(3048) // warm boot: both skipped, not layered on the checkpoint
	cycle(3048) // and stays stable across further reboots
}

// TestCmdServeMultiTenant pins the multi-tenant acceptance criterion end
// to end: two tenants ingest concurrently through one serve process,
// answer independent quantile queries, checkpoint to separate files on
// shutdown and restore warm on restart.
func TestCmdServeMultiTenant(t *testing.T) {
	ckptDir := filepath.Join(t.TempDir(), "tenants")

	serve := func() (string, chan error) {
		done := make(chan error, 1)
		addr := freePort(t)
		go func() {
			done <- cmdServe([]string{
				"-addr", addr, "-m", "512", "-s", "64",
				"-tenants", "orders,users",
				"-epoch", "2048", "-window", "8",
				"-checkpoint-dir", ckptDir,
			})
		}()
		return "http://" + addr, done
	}
	waitUp := func(base string) {
		t.Helper()
		client := &http.Client{Timeout: 2 * time.Second}
		for i := 0; i < 100; i++ {
			resp, err := client.Get(base + "/healthz")
			if err == nil {
				ok := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if ok {
					return
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatal("server never became healthy")
	}
	shutdown := func(done chan error) {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve exited with error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("serve did not shut down within 10s of SIGTERM")
		}
	}

	base, done := serve()
	waitUp(base)

	// Two tenants ingest disjoint ranges concurrently.
	var wg sync.WaitGroup
	for tenant, keyBase := range map[string]int64{"orders": 1_000_000, "users": 10} {
		wg.Add(1)
		go func(tenant string, keyBase int64) {
			defer wg.Done()
			for batch := 0; batch < 10; batch++ {
				var keys []string
				for i := int64(0); i < 500; i++ {
					keys = append(keys, strconv.FormatInt(keyBase+i, 10))
				}
				body := `{"keys":["` + strings.Join(keys, `","`) + `"]}`
				resp, err := http.Post(base+"/t/"+tenant+"/ingest", "application/json",
					strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("tenant %s ingest: status %d", tenant, resp.StatusCode)
					return
				}
			}
		}(tenant, keyBase)
	}
	wg.Wait()

	median := func(tenant string) int64 {
		t.Helper()
		resp, err := http.Get(base + "/t/" + tenant + "/quantile?phi=0.5")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %s quantile: status %d", tenant, resp.StatusCode)
		}
		var q map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
			t.Fatal(err)
		}
		v, err := strconv.ParseInt(q["lower"].(string), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if m := median("orders"); m < 1_000_000 {
		t.Fatalf("orders median %d below its key range", m)
	}
	if m := median("users"); m >= 1_000 {
		t.Fatalf("users median %d contaminated by the orders range", m)
	}
	shutdown(done)

	// Separate per-tenant checkpoint files exist (default tenant too).
	for _, name := range []string{"default", "orders", "users"} {
		if _, err := os.Stat(filepath.Join(ckptDir, name+".ckpt")); err != nil {
			t.Fatalf("tenant %s checkpoint: %v", name, err)
		}
	}

	// Restart over the same directory: tenants restore warm and keep
	// serving their own statistics.
	base, done = serve()
	waitUp(base)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Tenants map[string]map[string]any `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, name := range []string{"orders", "users"} {
		if n := health.Tenants[name]["n"].(float64); n != 5000 {
			t.Fatalf("restored tenant %s n = %g, want 5000", name, n)
		}
	}
	if m := median("orders"); m < 1_000_000 {
		t.Fatalf("restored orders median %d below its key range", m)
	}
	shutdown(done)
}

// TestCmdServeTenantOptionsPersistence pins the per-tenant Options
// sidecar through the serve (worker) path: a tenant admin-created with
// its own run length, stripes and retention must come back from a
// reboot with exactly that configuration — not the registry defaults —
// because the distributed tier restarts workers routinely and a worker
// that silently reconfigured its tenants would stop being byte-
// equivalent to the fleet it left. Also covers the worker-mode summary
// RPC (GET /t/{tenant}/summary) and the opaqclient Query reader the
// coordinator smoke relies on.
func TestCmdServeTenantOptionsPersistence(t *testing.T) {
	ckptDir := t.TempDir()
	serve := func() (string, chan error) {
		done := make(chan error, 1)
		addr := freePort(t)
		go func() {
			done <- cmdServe([]string{
				"-addr", addr, "-m", "512", "-s", "64", "-stripes", "2",
				"-checkpoint-dir", ckptDir,
			})
		}()
		return "http://" + addr, done
	}
	client := &http.Client{Timeout: 2 * time.Second}
	waitUp := func(base string) {
		t.Helper()
		for i := 0; i < 100; i++ {
			resp, err := client.Get(base + "/healthz")
			if err == nil {
				ok := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if ok {
					return
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatal("server never became healthy")
	}
	shutdown := func(done chan error) {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve exited with error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("serve did not shut down within 10s of SIGTERM")
		}
	}
	tenantStats := func(base string) (n, stripes float64) {
		t.Helper()
		resp, err := client.Get(base + "/t/fast/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st["n"].(float64), st["stripes"].(float64)
	}

	base, done := serve()
	waitUp(base)

	// Create "fast" with options diverging from every relevant default.
	resp, err := client.Post(base+"/admin/tenants", "application/json",
		strings.NewReader(`{"name":"fast","m":1024,"s":128,"stripes":3,
			"epoch_max_elems":4096,"retain":"last_k","retain_k":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admin create: status %d", resp.StatusCode)
	}
	var keys []string
	for i := 0; i < 2048; i++ {
		keys = append(keys, strconv.Itoa(i*3))
	}
	resp, err = client.Post(base+"/t/fast/ingest", "application/json",
		strings.NewReader(`{"keys":[`+strings.Join(keys, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}

	// The summary RPC the coordinator scatter-gathers from.
	resp, err = client.Get(base + "/t/fast/summary")
	if err != nil {
		t.Fatal(err)
	}
	sumBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(sumBytes) == 0 {
		t.Fatalf("summary: status %d, %d bytes, err %v", resp.StatusCode, len(sumBytes), err)
	}
	shutdown(done)

	// The sidecar sits next to the checkpoint for every tenant.
	for _, name := range []string{"default", "fast"} {
		if _, err := os.Stat(filepath.Join(ckptDir, name+".opts.json")); err != nil {
			t.Fatalf("tenant %s options sidecar: %v", name, err)
		}
	}

	// Reboot: the custom configuration survives, not the -stripes 2 /
	// -m 512 defaults the process was started with.
	base, done = serve()
	waitUp(base)
	n, stripes := tenantStats(base)
	if n != 2048 {
		t.Fatalf("restored n = %g, want 2048", n)
	}
	if stripes != 3 {
		t.Fatalf("restored stripes = %g, want the tenant's own 3", stripes)
	}

	// The Query reader sees the same state through the typed client.
	q := opaqclient.NewQuery(base, opaqclient.Options{Tenant: "fast"})
	st, err := q.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 2048 || st.Partial {
		t.Fatalf("Query stats = %+v, want n=2048 partial=false", st)
	}
	qa, err := q.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if qa.Partial {
		t.Fatal("single-server quantile reported partial")
	}
	if _, err := strconv.ParseInt(qa.Lower, 10, 64); err != nil {
		t.Fatalf("median lower bound not an int64: %q", qa.Lower)
	}
	shutdown(done)
}
