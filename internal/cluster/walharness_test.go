package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"opaq/internal/engine"
	"opaq/internal/runio"
)

// TestWALReplayHarness is the journal's acceptance harness: a randomized
// run-aligned stream (JSON and binary wire formats mixed) flows through a
// coordinator while the ENTIRE worker fleet is killed mid-stream, the
// coordinator itself is restarted mid-outage (journals re-opened from
// disk), the fleet comes back, and the replayer drains. At quiesce the
// coordinator's merged summary must be byte-identical to an uninterrupted
// local shadow engine's checkpoint for every tenant, with nonzero
// wal_appends/wal_replayed, zero drops, and empty journals — the
// mergeability property extended across an outage: journaled run-aligned
// batches land as the same multiset, so the bytes cannot differ.
func TestWALReplayHarness(t *testing.T) {
	const runLen = 512
	codec := runio.Int64Codec{}
	walDir := t.TempDir()
	workers := []*testWorker{newTestWorker(t), newTestWorker(t)}

	newCoord := func() *Coordinator[int64] {
		t.Helper()
		c, err := New(Options[int64]{
			Workers:         []string{workers[0].url(), workers[1].url()},
			Spread:          2,
			Codec:           codec,
			Parse:           engine.Int64Key,
			Client:          &WorkerClient{HTTP: &http.Client{Timeout: 2 * time.Second}, Backoff: 2 * time.Millisecond},
			WALDir:          walDir,
			OwnerQuarantine: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	coord := newCoord()
	h := coord.Handler()

	tenants := []string{"metrics", "orders"}
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

	rng := rand.New(rand.NewSource(11))
	// ingestRound pushes one run-aligned batch per tenant through the
	// given handler and mirrors it into the shadow engines. While the
	// fleet is down every batch must come back 202 + X-Opaq-Journaled
	// with a format-matched acknowledgment; while it is up, a plain 200.
	ingestRound := func(h http.Handler, round int, wantJournaled bool) {
		t.Helper()
		for _, tenant := range tenants {
			batch := make([]int64, runLen*(1+rng.Intn(3)))
			for i := range batch {
				batch[i] = rng.Int63n(1 << 44)
			}
			var rec *recorder
			if round%2 == 0 {
				body, err := json.Marshal(map[string]any{"keys": batch})
				if err != nil {
					t.Fatal(err)
				}
				rec = doRaw(t, h, http.MethodPost, "/t/"+tenant+"/ingest", "application/json", body)
			} else {
				frame, err := runio.AppendDataFrame(nil, codec, "", batch)
				if err != nil {
					t.Fatal(err)
				}
				rec = doRaw(t, h, http.MethodPost, "/t/"+tenant+"/ingest", "application/octet-stream", frame)
			}
			if wantJournaled {
				if rec.status != http.StatusAccepted || rec.header.Get("X-Opaq-Journaled") != "true" {
					t.Fatalf("round %d %s: status %d journaled %q, want 202 journaled",
						round, tenant, rec.status, rec.header.Get("X-Opaq-Journaled"))
				}
				if round%2 != 0 {
					// Binary journaled acks count the batch's elements.
					hd, err := runio.ReadFrameHeader(&rec.body, 0)
					if err != nil {
						t.Fatal(err)
					}
					payload, err := runio.ReadFramePayload(&rec.body, hd, nil)
					if err != nil {
						t.Fatal(err)
					}
					acked, _, err := runio.DecodeAckPayload(payload)
					if err != nil {
						t.Fatal(err)
					}
					if int(acked) != len(batch) {
						t.Fatalf("round %d %s: journaled ack %d, want %d", round, tenant, acked, len(batch))
					}
				}
			} else if rec.status != http.StatusOK {
				t.Fatalf("round %d %s: status %d %s", round, tenant, rec.status, rec.body.String())
			}
			if err := locals[tenant].IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase 1: healthy fleet, direct relays.
	for round := 0; round < 4; round++ {
		ingestRound(h, round, false)
	}

	// Phase 2: the WHOLE fleet dies (graceful: checkpoints written, then
	// gone). Every in-flight batch from here lands in the journal.
	workers[0].kill()
	workers[1].kill()
	for round := 4; round < 7; round++ {
		ingestRound(h, round, true)
	}

	// Coordinator restart mid-outage: the new instance must re-open the
	// journals from disk with the backlog intact, and keep journaling.
	preRestart := coord.wal.Stats()
	if preRestart.Appends == 0 || preRestart.PendingBytes == 0 {
		t.Fatalf("nothing journaled before coordinator restart: %+v", preRestart)
	}
	coord.Close()
	coord = newCoord()
	t.Cleanup(coord.Close)
	h = coord.Handler()
	if got := coord.wal.Stats().PendingBytes; got != preRestart.PendingBytes {
		t.Fatalf("pending bytes across coordinator restart: %d, want %d", got, preRestart.PendingBytes)
	}
	for round := 7; round < 9; round++ {
		ingestRound(h, round, true)
	}

	// Phase 3: the fleet returns; the replayer must drain every journal.
	workers[0].restart()
	workers[1].restart()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if st := coord.wal.Stats(); st.PendingBytes == 0 && st.Tenants == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journals not drained: %+v", coord.wal.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := coord.wal.Stats()
	if st.Replayed == 0 || st.Drops != 0 || st.PendingBytes != 0 {
		t.Fatalf("post-drain stats: %+v, want nonzero replayed, zero drops, zero pending", st)
	}

	// Post-recovery rounds take the direct path again.
	for round := 9; round < 11; round++ {
		ingestRound(h, round, false)
	}

	// Quiesce: byte-identical summaries vs the uninterrupted shadow, and
	// the journal counters surfaced on /stats.
	for _, tenant := range tenants {
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
			t.Errorf("%s: summary after fleet kill + coordinator restart + replay differs from the uninterrupted shadow (%d vs %d bytes)",
				tenant, rec.body.Len(), want.Len())
		}

		status, out := doJSON(t, h, http.MethodGet, "/t/"+tenant+"/stats", nil)
		if status != http.StatusOK {
			t.Fatalf("%s stats: status %d", tenant, status)
		}
		wal, _ := out["wal"].(map[string]any)
		if wal == nil || wal["enabled"] != true {
			t.Fatalf("%s stats wal block: %v", tenant, out["wal"])
		}
		if replayed, _ := wal["wal_replayed"].(float64); replayed == 0 {
			t.Errorf("wal_replayed = %v on /stats, want > 0", wal["wal_replayed"])
		}
		if pending, _ := wal["wal_pending_bytes"].(float64); pending != 0 {
			t.Errorf("wal_pending_bytes = %v on /stats, want 0", wal["wal_pending_bytes"])
		}
	}
}

// TestIngestJournalPreservesTenantOrder pins per-tenant batch order end
// to end: two batches journaled during a partition plus one direct batch
// after recovery must REACH the worker in submission order — replay is
// FIFO per tenant and the direct path never overtakes a backlog. The
// delivered order is observed at the transport: every 2xx ingest POST
// the worker actually accepted, in sequence.
func TestIngestJournalPreservesTenantOrder(t *testing.T) {
	worker := newTestWorker(t)
	rt := &recordingTransport{}
	c, err := New(Options[int64]{
		Workers: []string{worker.url()},
		Codec:   runio.Int64Codec{},
		Parse:   engine.Int64Key,
		Client:  &WorkerClient{HTTP: &http.Client{Timeout: 2 * time.Second, Transport: rt}, Backoff: 2 * time.Millisecond},
		WALDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	h := c.Handler()
	createTenantOn(t, worker.url(), "metrics")

	worker.stopHTTP() // partition: the registry (and its data) stays alive
	bodies := []string{`{"keys":[1]}`, `{"keys":[2]}`}
	for i, body := range bodies {
		rec := doRaw(t, h, http.MethodPost, "/t/metrics/ingest", "application/json", []byte(body))
		if rec.status != http.StatusAccepted || rec.header.Get("X-Opaq-Journaled") != "true" {
			t.Fatalf("partitioned ingest %d: status %d journaled %q, want 202 journaled",
				i, rec.status, rec.header.Get("X-Opaq-Journaled"))
		}
	}

	worker.restartHTTP()
	deadline := time.Now().Add(10 * time.Second)
	for c.wal.HasBacklog("metrics") {
		if time.Now().After(deadline) {
			t.Fatalf("backlog not drained: %+v", c.wal.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	rec := doRaw(t, h, http.MethodPost, "/t/metrics/ingest", "application/json", []byte(`{"keys":[3]}`))
	if rec.status != http.StatusOK {
		t.Fatalf("ingest after drain: status %d %s", rec.status, rec.body.String())
	}

	delivered := rt.deliveredBodies("/t/metrics/ingest")
	want := append(bodies, `{"keys":[3]}`)
	if len(delivered) != len(want) {
		t.Fatalf("worker accepted %d ingests %v, want %d", len(delivered), delivered, len(want))
	}
	for i := range want {
		if delivered[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", delivered, want)
		}
	}
	status, out := doJSON(t, h, http.MethodGet, "/t/metrics/stats", nil)
	if status != http.StatusOK || out["n"] != float64(3) {
		t.Fatalf("final stats: status %d n=%v, want 3 elements", status, out["n"])
	}
}

// recordingTransport logs the body of every POST that came back 2xx,
// keyed by URL path — the worker-side view of what landed, in order.
type recordingTransport struct {
	mu  sync.Mutex
	log [][2]string // {path, body}
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		body, _ = io.ReadAll(req.Body)
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && req.Method == http.MethodPost && resp.StatusCode < 300 {
		rt.mu.Lock()
		rt.log = append(rt.log, [2]string{req.URL.Path, string(body)})
		rt.mu.Unlock()
	}
	return resp, err
}

func (rt *recordingTransport) deliveredBodies(path string) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []string
	for _, e := range rt.log {
		if e[0] == path {
			out = append(out, e[1])
		}
	}
	return out
}

// TestIngestJournalRejectsInvalidBodies: journaling skips the workers'
// validation, so the coordinator must reject what the fleet would have —
// malformed JSON and corrupt/mismatched frames get a 400, never a
// journal entry that replay would silently drop later.
func TestIngestJournalRejectsInvalidBodies(t *testing.T) {
	dead, err := New(Options[int64]{
		Workers: []string{"http://127.0.0.1:1"},
		Codec:   runio.Int64Codec{},
		Parse:   engine.Int64Key,
		Client:  &WorkerClient{HTTP: &http.Client{Timeout: time.Second}, Attempts: 1, Backoff: time.Millisecond},
		WALDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dead.Close)
	h := dead.Handler()

	// Malformed JSON, a key the int64 fleet cannot parse, and a body that
	// is valid JSON but not an ingest object.
	for _, body := range []string{`{"keys":[1,`, `{"keys":["abc"]}`, `[1,2]`} {
		rec := doRaw(t, h, http.MethodPost, "/t/x/ingest", "application/json", []byte(body))
		if rec.status != http.StatusBadRequest {
			t.Fatalf("invalid JSON body %s journaled: status %d", body, rec.status)
		}
	}
	frame, err := runio.AppendDataFrame(nil, runio.Int64Codec{}, "", []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0xff // break the payload CRC
	rec := doRaw(t, h, http.MethodPost, "/t/x/ingest", "application/octet-stream", frame)
	if rec.status != http.StatusBadRequest {
		t.Fatalf("corrupt frame journaled: status %d", rec.status)
	}
	if st := dead.wal.Stats(); st.Appends != 0 {
		t.Fatalf("invalid bodies reached the journal: %+v", st)
	}

	// The valid version of the same frame IS journaled.
	frame[len(frame)-1] ^= 0xff
	rec = doRaw(t, h, http.MethodPost, "/t/x/ingest", "application/octet-stream", frame)
	if rec.status != http.StatusAccepted || rec.header.Get("X-Opaq-Journaled") != "true" {
		t.Fatalf("valid frame with dead fleet: status %d, want 202 journaled", rec.status)
	}
}

// TestIngestJournalRejectsNaNFrames: a float fleet's workers answer 400 to
// a NaN key, so the coordinator must not journal a frame body holding
// one, even after valid frames.
func TestIngestJournalRejectsNaNFrames(t *testing.T) {
	dead, err := New(Options[float64]{
		Workers: []string{"http://127.0.0.1:1"},
		Codec:   runio.Float64Codec{},
		Parse:   engine.Float64Key,
		Client:  &WorkerClient{HTTP: &http.Client{Timeout: time.Second}, Attempts: 1, Backoff: time.Millisecond},
		WALDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dead.Close)
	h := dead.Handler()

	body, err := runio.AppendDataFrame(nil, runio.Float64Codec{}, "", []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if body, err = runio.AppendDataFrame(body, runio.Float64Codec{}, "", []float64{3, math.NaN(), 4}); err != nil {
		t.Fatal(err)
	}
	rec := doRaw(t, h, http.MethodPost, "/t/x/ingest", "application/octet-stream", body)
	if rec.status != http.StatusBadRequest {
		t.Fatalf("NaN frame journaled: status %d", rec.status)
	}
	rec = doRaw(t, h, http.MethodPost, "/t/x/ingest", "application/json", []byte(`{"keys":["NaN"]}`))
	if rec.status != http.StatusBadRequest {
		t.Fatalf("NaN JSON key journaled: status %d", rec.status)
	}
	if st := dead.wal.Stats(); st.Appends != 0 {
		t.Fatalf("a NaN key reached the journal: %+v", st)
	}
}
