package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"opaq/internal/core"
	"opaq/internal/runio"
)

// epochShape is what TestDeferredSettleMatchesSnapshotTwin compares of an
// EpochStats: everything but the seal times, which differ between engines.
type epochShape struct {
	ID, FirstID uint64
	Seals, N    int64
	Bytes       int64
	Samples     int
	Source      EpochSource
}

func epochShapes(e *Engine[int64]) []epochShape {
	eps := e.Epochs()
	out := make([]epochShape, len(eps))
	for i, ep := range eps {
		out[i] = epochShape{ep.ID, ep.FirstID, ep.Seals, ep.N, ep.Bytes, ep.Samples, ep.Source}
	}
	return out
}

// TestDeferredSettleMatchesSnapshotTwin holds back the work each ingest
// leaves for after its return — the settle of the run it filled and the
// seal it made due — through the goSettle hook, and reads the engine as a
// sequential caller would after every batch, in turn: a checkpoint while
// that work is still held back, then the ring and the pending count once
// it is let go; the ring first, which waits for the seal; the pending
// count first; Stats first; or nothing, with the work let go a
// millisecond later, so that the next ingest must wait for the seal. Each
// read must equal what a twin shows whose ingests do that work before
// they return, as they all did before it was deferred, and which calls
// Snapshot after every batch it is read after: the same epoch IDs,
// spans, counts and sample counts, the same pending count and seal
// counters, and the same checkpoint bytes. The batches are ragged, and a third of them end on a run
// boundary. It covers count and bytes triggers under keep-all, last-K and
// max-age retention, with compaction on and off.
func TestDeferredSettleMatchesSnapshotTwin(t *testing.T) {
	const runLen = 64
	triggers := map[string]EpochPolicy{
		"MaxElems": {MaxElems: 200},
		"MaxBytes": {MaxBytes: 2048},
	}
	retentions := map[string]Retention{
		"all":     {},
		"last_k":  {Kind: RetainLastK, K: 4},
		"max_age": {Kind: RetainMaxAge, MaxAge: time.Hour},
	}
	seed := int64(0)
	for tname, trigger := range triggers {
		for rname, retain := range retentions {
			for _, compact := range []bool{false, true} {
				seed++
				t.Run(fmt.Sprintf("%s/%s/compact=%v", tname, rname, compact), func(t *testing.T) {
					opts := Options{
						Config:     core.Config{RunLen: runLen, SampleSize: 8},
						Stripes:    2,
						Epoch:      trigger,
						Retention:  retain,
						Compaction: CompactionPolicy{Enabled: compact},
					}
					e, err := New[int64](opts)
					if err != nil {
						t.Fatal(err)
					}
					twin, err := New[int64](opts)
					if err != nil {
						t.Fatal(err)
					}
					twin.goSettle = func(settle func()) { settle() }
					// Each ingest's work waits for the gate of its batch.
					var gate chan struct{}
					e.goSettle = func(settle func()) {
						g := gate
						go func() {
							<-g
							settle()
						}()
					}
					rng := rand.New(rand.NewSource(seed))
					for i := range 60 {
						n := 1 + rng.Intn(3*runLen)
						if i%3 == 0 {
							n = runLen * (1 + rng.Intn(3))
						}
						batch := make([]int64, n)
						for j := range batch {
							batch[j] = rng.Int63n(1 << 20)
						}
						gate = make(chan struct{})
						if err := e.IngestBatch(batch); err != nil {
							t.Fatal(err)
						}
						if err := twin.IngestBatch(batch); err != nil {
							t.Fatal(err)
						}
						mode := i % 5
						if mode == 4 {
							g := gate
							time.AfterFunc(time.Millisecond, func() { close(g) })
							continue
						}
						if _, err := twin.Snapshot(); err != nil {
							t.Fatal(err)
						}

						var (
							ck      []byte
							pending int64
							st      Stats
						)
						if mode == 0 {
							ck = checkpointBytes(t, e)
						}
						close(gate)
						switch mode {
						case 2:
							pending = e.PendingElems()
						case 3:
							st = e.Stats()
						}
						got := epochShapes(e)
						if mode != 0 {
							ck = checkpointBytes(t, e)
						}
						if mode != 2 {
							pending = e.PendingElems()
						}

						if want := epochShapes(twin); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("batch %d: ring\n%v\nwant the twin's\n%v", i, got, want)
						}
						if !bytes.Equal(ck, checkpointBytes(t, twin)) {
							t.Fatalf("batch %d: checkpoint bytes differ from the twin's", i)
						}
						if want := twin.PendingElems(); pending != want {
							t.Fatalf("batch %d: pending %d, twin %d", i, pending, want)
						}
						if mode == 3 {
							want := twin.Stats()
							if st.PendingElems != want.PendingElems || st.SealedEpochs != want.SealedEpochs ||
								st.EvictedEpochs != want.EvictedEpochs || st.Epochs != want.Epochs || st.RetainedN != want.RetainedN {
								t.Fatalf("batch %d: stats %+v\nwant the twin's %+v", i, st, want)
							}
						}
					}
					if st := e.Stats(); st.SealedEpochs == 0 {
						t.Fatal("no seal was cut: the schedule exercised nothing")
					}
				})
			}
		}
	}
}

// TestDeferredSettleConcurrentMatchesSerialTwin runs IngestBatch and
// Ingest from concurrent writers while other goroutines call Snapshot,
// Stats, Rotate and CheckpointFile, with a count trigger sealing and
// compacting behind the writers' backs, so settles and seals are in
// flight throughout. Run it under the race detector. Once the writers are
// done, N and the keep-all checkpoint bytes must equal a serial twin's
// that ingested the same keys. One stripe and one sample per key (step 1)
// make the summary independent of the order the writers' keys
// interleave in: its samples are all the keys, sorted, and its runs
// number ⌈N/RunLen⌉ whatever the order.
func TestDeferredSettleConcurrentMatchesSerialTwin(t *testing.T) {
	opts := Options{
		Config:     core.Config{RunLen: 8, SampleSize: 8},
		Stripes:    1,
		Epoch:      EpochPolicy{MaxElems: 40},
		Compaction: CompactionPolicy{Enabled: true},
	}
	e, err := New[int64](opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, calls = 3, 200
	batches := make([][][]int64, writers)
	singles := make([]int64, 500)
	rng := rand.New(rand.NewSource(31))
	for w := range batches {
		for range calls {
			n := 1 + rng.Intn(20)
			if rng.Intn(2) == 0 {
				n = 8 * (1 + rng.Intn(3))
			}
			b := make([]int64, n)
			for j := range b {
				b[j] = rng.Int63n(1000)
			}
			batches[w] = append(batches[w], b)
		}
	}
	for i := range singles {
		singles[i] = rng.Int63n(1000)
	}

	dir := t.TempDir()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			path := filepath.Join(dir, fmt.Sprintf("reader%d.ckpt", r))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch r {
				case 0:
					_, err = e.Snapshot()
				case 1:
					e.Stats()
				case 2:
					_, err = e.Rotate()
				case 3:
					err = e.CheckpointFile(path, runio.Int64Codec{})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range batches[w] {
				if err := e.IngestBatch(b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, v := range singles {
			if err := e.Ingest(v); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	twin, err := New[int64](opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range batches {
		for _, b := range bs {
			if err := twin.IngestBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := twin.IngestBatch(singles); err != nil {
		t.Fatal(err)
	}
	if got, want := e.N(), twin.N(); got != want {
		t.Fatalf("N = %d, serial twin %d", got, want)
	}
	path := filepath.Join(dir, "final.ckpt")
	if err := e.CheckpointFile(path, runio.Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, checkpointBytes(t, twin)) {
		t.Fatal("keep-all checkpoint bytes differ from the serial twin's")
	}
	if st := e.Stats(); st.SealedEpochs == 0 {
		t.Fatal("no seal was cut: the schedule exercised nothing")
	}
}
