package runio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// decodeOnly wraps a built-in codec in a type the file reader does not
// recognise, which forces the buffered decode path on any host.
type decodeOnly[T any] struct{ Codec[T] }

// raceEnabled reports a build with the race detector (see race_test.go),
// under which sync.Pool drops a random share of Puts.
var raceEnabled bool

// scanRuns reads every run of rr, checking that each scan takes the read
// path it is expected to.
func scanRuns[T any](t *testing.T, rr RunReader[T], direct bool) [][]T {
	t.Helper()
	defer rr.Close()
	if fr := rr.(*fileRunReader[T]); (fr.ebuf == nil) != direct {
		t.Fatalf("direct read path = %v, want %v", fr.ebuf == nil, direct)
	}
	var runs [][]T
	for {
		run, err := rr.NextRun()
		if err == io.EOF {
			return runs
		}
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
}

// encodeRuns turns runs back into their file records, so runs compare by
// bit pattern (a NaN payload included).
func encodeRuns[T any](codec Codec[T], runs [][]T) [][]byte {
	out := make([][]byte, len(runs))
	for i, run := range runs {
		out[i] = codec.AppendElems(nil, run)
	}
	return out
}

// checkReadPaths writes n random records with codec and scans the file,
// and its run-aligned sections, on the direct and the decode path: both
// must deliver the same runs, bit for bit, with the same I/O accounting.
func checkReadPaths[T any](t *testing.T, codec Codec[T], n, m int) {
	rng := rand.New(rand.NewSource(int64(n)))
	raw := make([]byte, n*codec.Size())
	rng.Read(raw)
	xs := codec.DecodeElems(nil, raw)
	path := filepath.Join(t.TempDir(), "paths.run")
	if err := WriteFile(path, codec, xs); err != nil {
		t.Fatal(err)
	}
	direct, err := OpenFile(path, codec)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := OpenFile[T](path, decodeOnly[T]{codec})
	if err != nil {
		t.Fatal(err)
	}
	scan := func(d Dataset[T], isDirect bool) [][]byte {
		rr, err := d.Runs(m)
		if err != nil {
			t.Fatal(err)
		}
		return encodeRuns(codec, scanRuns(t, rr, isDirect))
	}
	same := func(what string, a, b [][]byte) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d runs direct, %d decoded", what, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: run %d differs between the read paths", what, i)
			}
		}
	}
	got := scan(direct, true)
	same("file", got, scan(decoded, false))
	if !bytes.Equal(bytes.Join(got, nil), raw) {
		t.Fatal("file runs do not reproduce the records written")
	}
	if last := got[len(got)-1]; n%m != 0 && len(last) != (n%m)*codec.Size() {
		t.Fatalf("ragged final run has %d bytes, want %d", len(last), (n%m)*codec.Size())
	}
	if direct.Stats() != decoded.Stats() {
		t.Fatalf("I/O accounting differs: direct %+v, decoded %+v", direct.Stats(), decoded.Stats())
	}

	ds, err := direct.Sections(3, m)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := decoded.Sections(3, m)
	if err != nil {
		t.Fatal(err)
	}
	var joined [][]byte
	for i := range ds {
		runs := scan(ds[i], true)
		same("section", runs, scan(dd[i], false))
		if ds[i].Stats() != dd[i].Stats() {
			t.Fatalf("section %d accounting differs: direct %+v, decoded %+v", i, ds[i].Stats(), dd[i].Stats())
		}
		joined = append(joined, runs...)
	}
	if !bytes.Equal(bytes.Join(joined, nil), raw) {
		t.Fatal("section runs do not reproduce the records written")
	}
}

// TestFileRunReaderPathsAgree checks, for each of the six built-in codecs,
// that reading runs straight into run memory yields the same runs as
// decoding each element through the Codec, on whole files with a ragged
// final run and on FileSection scans. Random records cover every bit
// pattern, NaN payloads included.
func TestFileRunReaderPathsAgree(t *testing.T) {
	if !littleEndian {
		t.Skip("built-in codecs take the decode path on big-endian hosts")
	}
	const n, m = 10_007, 512
	t.Run("int64", func(t *testing.T) { checkReadPaths[int64](t, Int64Codec{}, n, m) })
	t.Run("float64", func(t *testing.T) { checkReadPaths[float64](t, Float64Codec{}, n, m) })
	t.Run("uint64", func(t *testing.T) { checkReadPaths[uint64](t, Uint64Codec{}, n, m) })
	t.Run("int32", func(t *testing.T) { checkReadPaths[int32](t, Int32Codec{}, n, m) })
	t.Run("uint32", func(t *testing.T) { checkReadPaths[uint32](t, Uint32Codec{}, n, m) })
	t.Run("float32", func(t *testing.T) { checkReadPaths[float32](t, Float32Codec{}, n, m) })
	t.Run("exact", func(t *testing.T) { checkReadPaths[int64](t, Int64Codec{}, 4*m, m) })
}

// TestFileRunReaderTruncatedPaths cuts a file short inside a run and at a
// run boundary: both read paths must deliver the same whole runs first
// and then fail with the same ErrCorrupt.
func TestFileRunReaderTruncatedPaths(t *testing.T) {
	for _, keep := range []int{1000, 768} {
		path := filepath.Join(t.TempDir(), "trunc.run")
		xs := make([]int64, 1024)
		for i := range xs {
			xs[i] = int64(i) * 7
		}
		if err := WriteFile(path, Int64Codec{}, xs); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, headerSize+8*int64(keep)); err != nil {
			t.Fatal(err)
		}
		var msgs []string
		for _, codec := range []Codec[int64]{Int64Codec{}, decodeOnly[int64]{Int64Codec{}}} {
			d, err := OpenFile(path, codec)
			if err != nil {
				t.Fatal(err)
			}
			rr, err := d.Runs(256)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; ; r++ {
				run, err := rr.NextRun()
				if err == nil {
					if run[0] != int64(r*256*7) {
						t.Fatalf("keep=%d: run %d starts at %d", keep, r, run[0])
					}
					continue
				}
				if !errors.Is(err, ErrCorrupt) || r != keep/256 {
					t.Fatalf("keep=%d: run %d: %v, want ErrCorrupt at run %d", keep, r, err, keep/256)
				}
				msgs = append(msgs, err.Error())
				break
			}
			if d.Stats().ReadOps != int64(keep/256) {
				t.Fatalf("keep=%d: %d read ops accounted, want %d", keep, d.Stats().ReadOps, keep/256)
			}
		}
		if msgs[0] != msgs[1] {
			t.Fatalf("keep=%d: direct path says %q, decode path %q", keep, msgs[0], msgs[1])
		}
	}
}

// TestOpenFileRejectsTrailingBytes opens files that hold bytes past the
// payload their header counts: one whose Writer flushed chunks but never
// reached Close, so its header still counts no elements, and closed files
// with trailing bytes appended, a whole element's worth and less. Each
// must fail to open with ErrCorrupt instead of reading as fewer keys.
func TestOpenFileRejectsTrailingBytes(t *testing.T) {
	dir := t.TempDir()
	unclosed := filepath.Join(dir, "unclosed.run")
	w, err := NewWriter(unclosed, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]int64, 300_000)
	for i := range xs {
		xs[i] = int64(i)
	}
	if err := w.Append(xs...); err != nil {
		t.Fatal(err)
	}
	if err := w.f.Close(); err != nil { // the descriptor only, as a crash would
		t.Fatal(err)
	}
	paths := []string{unclosed}
	for _, extra := range []int{8, 3} {
		path := filepath.Join(dir, fmt.Sprintf("extra%d.run", extra))
		if err := WriteFile(path, Int64Codec{}, xs[:1000]); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(path, Int64Codec{}); err != nil {
			t.Fatalf("clean file: %v", err)
		}
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, extra)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	for _, path := range paths {
		if _, err := OpenFile(path, Int64Codec{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: OpenFile error %v, want ErrCorrupt", filepath.Base(path), err)
		}
	}
}

// BenchmarkFileRunReader scans a 32 MiB int64 run file in runs of 65,536
// keys on both read paths and reports MiB/s. The file stays in the page
// cache, so this times the copy out of the kernel and the decode, not a
// disk.
func BenchmarkFileRunReader(b *testing.B) {
	const n, m = 4 << 20, 1 << 16
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i) * 0x61c8864680b583eb
	}
	path := filepath.Join(b.TempDir(), "bench.run")
	if err := WriteFile(path, Int64Codec{}, xs); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		codec Codec[int64]
	}{{"direct", Int64Codec{}}, {"decode", decodeOnly[int64]{Int64Codec{}}}} {
		d, err := OpenFile(path, c.codec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				rr, err := d.Runs(m)
				if err != nil {
					b.Fatal(err)
				}
				for {
					_, err := rr.NextRun()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.N)*n*8/(1<<20)/b.Elapsed().Seconds(), "MiB/s")
		})
	}
}

// freshRuns scans d once and returns copies of its runs.
func freshRuns[T any](t *testing.T, d Dataset[T], m int) [][]T {
	t.Helper()
	rr, err := d.Runs(m)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	var runs [][]T
	for {
		run, err := rr.NextRun()
		if err == io.EOF {
			return runs
		}
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, append([]T(nil), run...))
	}
}

// TestRunReaderPooledRuns checks that the file reader's direct and decode
// paths and the memory reader read runs into the run pool. Every run is
// scribbled over and given back; the next NextRun must return exactly
// the keys a fresh scan returns, the short final run included, and runs
// of another capacity put in the pool alongside must never come back.
// Without the race detector, under which sync.Pool drops a random share
// of Puts, the scan's eleven runs must come in at most two arrays.
func TestRunReaderPooledRuns(t *testing.T) {
	const n, m = 10*512 + 37, 512
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)*0x61c8864680b583eb ^ 0x5a5a
	}
	path := filepath.Join(t.TempDir(), "pooled.run")
	if err := WriteFile(path, Int64Codec{}, xs); err != nil {
		t.Fatal(err)
	}
	direct, err := OpenFile(path, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := OpenFile[int64](path, decodeOnly[int64]{Int64Codec{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		d    Dataset[int64]
	}{{"direct", direct}, {"decode", decoded}, {"memory", NewMemoryDataset(xs, 8)}} {
		t.Run(c.name, func(t *testing.T) {
			want := freshRuns(t, c.d, m)
			rr, err := c.d.Runs(m)
			if err != nil {
				t.Fatal(err)
			}
			defer rr.Close()
			odd := map[*int64]bool{} // runs of another capacity
			seen := map[*int64]bool{}
			for i := 0; ; i++ {
				run, err := rr.NextRun()
				if err == io.EOF {
					if i != len(want) {
						t.Fatalf("EOF after %d runs, want %d", i, len(want))
					}
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(run, want[i]) {
					t.Fatalf("run %d differs from a fresh scan's", i)
				}
				if odd[&run[0]] {
					t.Fatalf("run %d is a run of another capacity", i)
				}
				seen[&run[0]] = true
				for j := range run {
					run[j] = -1
				}
				for _, capacity := range []int{m - 1, m + 1} {
					b := make([]int64, 1, capacity)
					odd[&b[0]] = true
					PutRun(b)
				}
				PutRun(run)
			}
			if !raceEnabled && len(seen) > 2 {
				t.Fatalf("the scan's %d runs came in %d arrays, want at most 2", len(want), len(seen))
			}
		})
	}
}

// TestPrefetchPooledRuns checks that runs given back to the pool while a
// PrefetchReader's goroutine reads ahead are refilled correctly: three
// consumers take runs one at a time, as core.Build's workers do, check
// each against a fresh scan, scribble over it and give it back,
// concurrently with the read-ahead. Without the race detector the scan's
// runs must come in no more arrays than it has runs out of the
// read-ahead's reach at once. Run it under the race detector too.
func TestPrefetchPooledRuns(t *testing.T) {
	const n, m, depth, consumers = 40*256 + 9, 256, 2, 3
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i) * 7
	}
	path := filepath.Join(t.TempDir(), "prefetch.run")
	if err := WriteFile(path, Int64Codec{}, xs); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFile(path, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	want := freshRuns(t, d, m)
	for rep := 0; rep < 5; rep++ {
		rr, err := d.Runs(m)
		if err != nil {
			t.Fatal(err)
		}
		p := Prefetch(rr, depth)
		var (
			mu   sync.Mutex
			next int
			seen = map[*int64]bool{} // the full runs' memory
			wg   sync.WaitGroup
		)
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					run, err := p.NextRun()
					i := next
					next++
					if len(run) == m {
						seen[&run[0]] = true
					}
					mu.Unlock()
					if err == io.EOF {
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
					if !slices.Equal(run, want[i]) {
						t.Errorf("run %d differs from a fresh scan's", i)
					}
					for j := range run {
						run[j] = -1
					}
					PutRun(run)
				}
			}()
		}
		wg.Wait()
		p.Close()
		// Out of reach at once: depth runs in the channel, one being read,
		// one per consumer, and one given back on each other P, since
		// sync.Pool keeps the last run a P puts where only that P gets it.
		limit := depth + 1 + consumers + runtime.GOMAXPROCS(0) - 1
		if !raceEnabled && len(seen) > limit {
			t.Fatalf("rep %d: the scan's 40 full runs came in %d arrays, want at most %d", rep, len(seen), limit)
		}
	}
}
