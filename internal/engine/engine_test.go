package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"opaq/internal/core"
	"opaq/internal/metrics"
	"opaq/internal/runio"
)

func newTestEngine(t *testing.T, stripes int) *Engine[int64] {
	t.Helper()
	e, err := New[int64](Options{
		Config:  core.Config{RunLen: 512, SampleSize: 64},
		Stripes: stripes,
		Buckets: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// assertEnclosure checks the paper's deterministic guarantee of one served
// quantile against an exact oracle of everything the engine had absorbed:
// the truth lies inside [Lower, Upper], and the element distance from
// either bound to the truth respects the summary's own Lemma 1/2
// accounting.
func assertEnclosure(t *testing.T, o *metrics.Oracle[int64], b core.Bounds[int64], phi float64) {
	t.Helper()
	truth := o.Quantile(phi)
	if b.Lower > truth || truth > b.Upper {
		t.Errorf("phi=%g: truth %d outside served enclosure [%d, %d]", phi, truth, b.Lower, b.Upper)
		return
	}
	below := int64(o.RankLT(truth) - o.RankLE(b.Lower))
	if below < 0 {
		below = 0
	}
	above := int64(o.RankLT(b.Upper) - o.RankLE(truth))
	if above < 0 {
		above = 0
	}
	if below > b.MaxBelow {
		t.Errorf("phi=%g: %d elements strictly between lower bound and truth, summary promised ≤ %d",
			phi, below, b.MaxBelow)
	}
	if above > b.MaxAbove {
		t.Errorf("phi=%g: %d elements strictly between truth and upper bound, summary promised ≤ %d",
			phi, above, b.MaxAbove)
	}
}

var torturePhis = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}

// TestEngineTortureConcurrent hammers one engine with concurrent ingesters
// and queriers (run under -race in CI). While data is in flight, queriers
// assert structural invariants of every answer; at quiesce points between
// ingest waves, every served quantile is checked against an exact oracle
// of everything ingested so far — the deterministic n/s enclosure must
// hold at every one of them.
func TestEngineTortureConcurrent(t *testing.T) {
	e := newTestEngine(t, 4)
	const (
		ingesters = 4
		rounds    = 5
		perRound  = 2500
		queriers  = 3
	)
	logs := make([][]int64, ingesters) // per-ingester logs; read only at quiesce points

	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for q := 0; q < queriers; q++ {
		qwg.Add(1)
		go func(q int) {
			defer qwg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + q)))
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
					t.Errorf("querier %d: Quantile(%g): %v", q, phi, err)
					return
				case b.Upper < b.Lower:
					t.Errorf("querier %d: inverted enclosure [%d, %d]", q, b.Lower, b.Upper)
					return
				}
				if lo, hi, err := e.RankBounds(rng.Int63n(1 << 40)); err == nil && lo > hi {
					t.Errorf("querier %d: inverted rank bounds [%d, %d]", q, lo, hi)
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

	for round := 0; round < rounds; round++ {
		var iwg sync.WaitGroup
		for g := 0; g < ingesters; g++ {
			iwg.Add(1)
			go func(g int) {
				defer iwg.Done()
				rng := rand.New(rand.NewSource(int64(round*ingesters + g + 1)))
				var batch []int64
				for i := 0; i < perRound; i++ {
					v := rng.Int63n(1 << 40)
					logs[g] = append(logs[g], v)
					if i%5 == 0 {
						if err := e.Ingest(v); err != nil {
							t.Errorf("ingester %d: %v", g, err)
							return
						}
						continue
					}
					batch = append(batch, v)
					if len(batch) >= 97 {
						if err := e.IngestBatch(batch); err != nil {
							t.Errorf("ingester %d: %v", g, err)
							return
						}
						batch = batch[:0]
					}
				}
				if err := e.IngestBatch(batch); err != nil {
					t.Errorf("ingester %d: %v", g, err)
				}
			}(g)
		}
		iwg.Wait()

		// Quiesce point: the exact oracle is everything ingested so far.
		var all []int64
		for g := range logs {
			all = append(all, logs[g]...)
		}
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Summary.N() != int64(len(all)) {
			t.Fatalf("round %d: snapshot covers %d elements, oracle has %d", round, snap.Summary.N(), len(all))
		}
		o := metrics.NewOracle(all)
		for _, phi := range torturePhis {
			b, err := snap.Summary.Bounds(phi)
			if err != nil {
				t.Fatalf("round %d: Bounds(%g): %v", round, phi, err)
			}
			assertEnclosure(t, o, b, phi)
		}
	}
	close(stop)
	qwg.Wait()

	// With ingestion quiesced, queries must be served from the cached
	// snapshot: no further merges however many arrive.
	if _, err := e.Quantile(0.5); err != nil {
		t.Fatal(err)
	}
	merges := e.Stats().Merges
	for i := 0; i < 200; i++ {
		if _, err := e.Quantile(0.25); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().Merges; got != merges {
		t.Errorf("snapshot cache missed: %d merges grew to %d with no ingest in between", merges, got)
	}
	if st := e.Stats(); st.N != int64(ingesters*rounds*perRound) {
		t.Errorf("Stats.N = %d, want %d", st.N, ingesters*rounds*perRound)
	}
}

// TestEngineCheckpointRestoreRoundTrip pins the acceptance criterion: a
// checkpointed engine restores to a byte-identical summary, through both
// the writer and the atomic-file paths.
func TestEngineCheckpointRestoreRoundTrip(t *testing.T) {
	codec := runio.Int64Codec{}
	a := newTestEngine(t, 3)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		batch := make([]int64, 40)
		for j := range batch {
			batch[j] = rng.Int63n(1 << 50)
		}
		if err := a.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
	}

	var direct bytes.Buffer
	if err := a.Checkpoint(&direct, codec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.sum")
	if err := a.CheckpointFile(path, codec); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), onDisk) {
		t.Fatal("Checkpoint and CheckpointFile wrote different bytes for the same state")
	}

	b := newTestEngine(t, 5) // stripe count need not match to restore
	if err := b.RestoreFile(path, codec); err != nil {
		t.Fatal(err)
	}
	if b.N() != a.N() {
		t.Fatalf("restored N = %d, want %d", b.N(), a.N())
	}
	var again bytes.Buffer
	if err := b.Checkpoint(&again, codec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), again.Bytes()) {
		t.Fatal("checkpoint → restore → checkpoint is not byte-identical")
	}
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sa.Summary.Parts(), sb.Summary.Parts()) {
		t.Fatal("restored snapshot summary differs structurally from the original")
	}

	// The restored engine keeps serving and ingesting.
	if err := b.Ingest(123); err != nil {
		t.Fatal(err)
	}
	if b.N() != a.N()+1 {
		t.Fatalf("post-restore ingest: N = %d", b.N())
	}
	if _, err := b.Quantile(0.5); err != nil {
		t.Fatal(err)
	}

	// A checkpoint with a different RunLen/SampleSize ratio must be
	// rejected, not silently merged.
	c, err := New[int64](Options{Config: core.Config{RunLen: 512, SampleSize: 128}, Stripes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreFile(path, codec); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("mismatched-step restore = %v, want ErrIncompatible", err)
	}
}

// TestEngineCheckpointFileAtomic verifies a failed checkpoint never
// replaces an existing good one and leaves no temp litter.
func TestEngineCheckpointFileAtomic(t *testing.T) {
	codec := runio.Int64Codec{}
	e := newTestEngine(t, 2)
	if err := e.IngestBatch([]int64{5, 1, 4, 2, 3}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "state.sum")
	if err := e.CheckpointFile(path, codec); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint into a directory that disappears mid-flight is the easy
	// injectable failure: the target is unwritable.
	if err := e.CheckpointFile(filepath.Join(dir, "missing", "state.sum"), codec); err == nil {
		t.Fatal("checkpoint into missing directory should fail")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, after) {
		t.Fatal("failed checkpoint corrupted the previous good one")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.Name() != "state.sum" {
			t.Errorf("checkpoint litter left behind: %s", ent.Name())
		}
	}
}

// TestEngineBulkLoad seeds an engine from a sharded build over a run file
// and layers live ingestion on top; the merged view must satisfy the
// enclosure guarantee over the union.
func TestEngineBulkLoad(t *testing.T) {
	const n = 40_000
	rng := rand.New(rand.NewSource(11))
	fileData := make([]int64, n)
	for i := range fileData {
		fileData[i] = rng.Int63n(1 << 45)
	}
	path := filepath.Join(t.TempDir(), "seed.run")
	if err := runio.WriteFile(path, runio.Int64Codec{}, fileData); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, 4)
	fd, err := runio.OpenFile(path, runio.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	sections, err := fd.Sections(4, 512)
	if err != nil {
		t.Fatal(err)
	}
	datasets := make([]runio.Dataset[int64], len(sections))
	for i, s := range sections {
		datasets[i] = s
	}
	if err := e.BulkLoad(datasets); err != nil {
		t.Fatal(err)
	}
	if e.N() != n {
		t.Fatalf("bulk-loaded N = %d, want %d", e.N(), n)
	}
	streamed := make([]int64, 5000)
	for i := range streamed {
		streamed[i] = rng.Int63n(1 << 45)
	}
	if err := e.IngestBatch(streamed); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Summary.N() != int64(n+len(streamed)) {
		t.Fatalf("snapshot N = %d, want %d", snap.Summary.N(), n+len(streamed))
	}
	o := metrics.NewOracle(append(append([]int64(nil), fileData...), streamed...))
	for _, phi := range torturePhis {
		b, err := snap.Summary.Bounds(phi)
		if err != nil {
			t.Fatal(err)
		}
		assertEnclosure(t, o, b, phi)
	}
	if snap.Hist == nil {
		t.Fatal("non-empty snapshot must carry a histogram")
	}
}

// TestEngineEmpty pins the empty-engine behaviors: structured ErrEmpty
// answers, a well-formed empty snapshot, and zeroed stats.
func TestEngineEmpty(t *testing.T) {
	e := newTestEngine(t, 2)
	if _, err := e.Quantile(0.5); !errors.Is(err, core.ErrEmpty) {
		t.Errorf("Quantile on empty engine = %v, want ErrEmpty", err)
	}
	if _, err := e.Selectivity(1, 2); !errors.Is(err, core.ErrEmpty) {
		t.Errorf("Selectivity on empty engine = %v, want ErrEmpty", err)
	}
	if _, _, err := e.EstimateRange(1, 2); !errors.Is(err, core.ErrEmpty) {
		t.Errorf("EstimateRange on empty engine = %v, want ErrEmpty", err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Summary.N() != 0 || snap.Hist != nil {
		t.Errorf("empty snapshot: N=%d hist=%v", snap.Summary.N(), snap.Hist)
	}
	if st := e.Stats(); st.N != 0 || st.Stripes != 2 {
		t.Errorf("empty stats: %+v", st)
	}
	// IngestBatch of nothing is a no-op, not a version bump.
	v := e.Stats().Version
	if err := e.IngestBatch(nil); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Version != v {
		t.Error("empty batch bumped the ingest version")
	}
}

// TestEngineOptionValidation pins constructor errors.
func TestEngineOptionValidation(t *testing.T) {
	if _, err := New[int64](Options{Config: core.Config{RunLen: 10, SampleSize: 3}}); err == nil {
		t.Error("invalid config should fail")
	}
	if _, err := New[int64](Options{Config: core.Config{RunLen: 8, SampleSize: 2}, Stripes: -1}); err == nil {
		t.Error("negative stripes should fail")
	}
	if _, err := New[int64](Options{Config: core.Config{RunLen: 8, SampleSize: 2}, Buckets: -3}); err == nil {
		t.Error("negative buckets should fail")
	}
}
