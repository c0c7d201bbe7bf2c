package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"opaq/internal/engine"
	"opaq/internal/runio"
)

// doRaw drives the coordinator handler with an arbitrary body and returns
// the raw response.
func doRaw(t *testing.T, h http.Handler, method, path, contentType string, body []byte) *recorder {
	t.Helper()
	req, err := http.NewRequest(method, "http://coord"+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := newRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestClusterEquivalenceHarness is the headline multi-process equivalence
// test: the same randomized stream pushed through 1 coordinator + 3
// workers (run-aligned batches, JSON and binary wire formats mixed,
// round-robin across spread-2 owners) and through a single local engine
// must yield byte-identical per-tenant summaries and enclosure-identical
// quantiles and selectivities — including across a full worker
// kill/restart cycle (graceful checkpoint, registry teardown, reboot from
// the checkpoint directory) with failover ingest while the worker is
// down. This is the OPAQ mergeability property doing the distributed
// tier's work: summaries are multiset-determined, so any partitioning of
// a run-aligned stream reduces to the same bytes.
func TestClusterEquivalenceHarness(t *testing.T) {
	const (
		runLen  = 512
		rounds  = 12
		killAt  = 4 // kill a worker after this many rounds...
		rejoins = 8 // ...and reboot it after this many
	)
	codec := runio.Int64Codec{}
	workers := []*testWorker{newTestWorker(t), newTestWorker(t), newTestWorker(t)}
	coord := testCoordinator(t, 2, workers...)
	h := coord.Handler()

	tenants := []string{"metrics", "orders", "users"}
	locals := map[string]*engine.Engine[int64]{}
	for _, tenant := range tenants {
		status, out := doJSON(t, h, http.MethodPost, "/admin/tenants",
			[]byte(fmt.Sprintf(`{"name":%q}`, tenant)))
		if status != http.StatusCreated {
			t.Fatalf("create %s: status %d %v", tenant, status, out)
		}
		local, err := engine.New[int64](testWorkerDefaults())
		if err != nil {
			t.Fatal(err)
		}
		locals[tenant] = local
		t.Cleanup(func() { local.Close() })
	}

	rng := rand.New(rand.NewSource(8))
	for round := 0; round < rounds; round++ {
		if round == killAt {
			workers[0].kill() // graceful: checkpoint, then gone
		}
		if round == rejoins {
			workers[0].restart() // fresh registry from the checkpoint dir
		}
		for _, tenant := range tenants {
			// Run-aligned batch: whole runs land on one engine, which is
			// exactly the condition under which sharding is invisible.
			batch := make([]int64, runLen*(1+rng.Intn(3)))
			for i := range batch {
				batch[i] = rng.Int63n(1 << 44)
			}
			if round%2 == 0 {
				ingestJSON(t, h, tenant, batch)
			} else {
				frame, err := runio.AppendDataFrame(nil, codec, "", batch)
				if err != nil {
					t.Fatal(err)
				}
				rec := doRaw(t, h, http.MethodPost, "/t/"+tenant+"/ingest",
					"application/octet-stream", frame)
				if rec.status != http.StatusOK {
					t.Fatalf("round %d binary ingest %s: status %d %s", round, tenant, rec.status, rec.body.String())
				}
			}
			if err := locals[tenant].IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if round == killAt {
			// Mid-outage answers must be flagged, not fabricated.
			status, out := doJSON(t, h, http.MethodGet, "/t/"+tenants[0]+"/stats", nil)
			if status != http.StatusOK {
				t.Fatalf("stats during outage: status %d %v", status, out)
			}
			down, _ := out["down"].([]any)
			if (out["partial"] == true) != (len(down) > 0) {
				t.Fatalf("stats during outage inconsistent: %v", out)
			}
		}
	}

	for _, tenant := range tenants {
		// Byte-identical summaries: the coordinator's merged scatter-gather
		// vs the single local engine's checkpoint.
		rec := doRaw(t, h, http.MethodGet, "/t/"+tenant+"/summary", "", nil)
		if rec.status != http.StatusOK {
			t.Fatalf("%s summary status %d: %s", tenant, rec.status, rec.body.String())
		}
		if got := rec.header.Get("X-Opaq-Partial"); got != "false" {
			t.Fatalf("%s summary partial = %q after full recovery", tenant, got)
		}
		var want bytes.Buffer
		if err := locals[tenant].Checkpoint(&want, codec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.body.Bytes(), want.Bytes()) {
			t.Errorf("%s: distributed summary bytes differ from the local engine's checkpoint (%d vs %d bytes)",
				tenant, rec.body.Len(), want.Len())
		}

		// Enclosure-identical quantiles through the HTTP path.
		for _, phi := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
			status, out := doJSON(t, h, http.MethodGet,
				fmt.Sprintf("/t/%s/quantile?phi=%g", tenant, phi), nil)
			if status != http.StatusOK {
				t.Fatalf("%s quantile(%g): status %d %v", tenant, phi, status, out)
			}
			if out["partial"] != false {
				t.Errorf("%s quantile(%g) still partial after recovery", tenant, phi)
			}
			b, err := locals[tenant].Quantile(phi)
			if err != nil {
				t.Fatal(err)
			}
			if out["lower"] != fmt.Sprint(b.Lower) || out["upper"] != fmt.Sprint(b.Upper) ||
				int64(out["rank"].(float64)) != b.Rank {
				t.Errorf("%s quantile(%g): distributed %v vs local [%v,%v] rank %d",
					tenant, phi, out, b.Lower, b.Upper, b.Rank)
			}
		}

		// Identical selectivities (same summary bytes → same count bounds).
		for _, r := range [][2]int64{{0, 1 << 43}, {1 << 42, 1 << 44}} {
			status, out := doJSON(t, h, http.MethodGet,
				fmt.Sprintf("/t/%s/selectivity?a=%d&b=%d", tenant, r[0], r[1]), nil)
			if status != http.StatusOK {
				t.Fatalf("%s selectivity: status %d %v", tenant, status, out)
			}
			sel, est, maxErr, err := locals[tenant].RangeEstimate(r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			if out["selectivity"] != sel || out["estimate"] != est || out["max_abs_error"] != maxErr {
				t.Errorf("%s selectivity[%d,%d]: distributed %v vs local (%v, %v, %v)",
					tenant, r[0], r[1], out, sel, est, maxErr)
			}
		}
	}
}
