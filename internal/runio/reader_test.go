package runio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// decodeOnly wraps a built-in codec in a type the file reader does not
// recognise, which forces the buffered decode path on any host.
type decodeOnly[T any] struct{ Codec[T] }

// scanRuns reads every run of rr, checking that each scan takes the read
// path it is expected to.
func scanRuns[T any](t *testing.T, rr RunReader[T], direct bool) [][]T {
	t.Helper()
	defer rr.Close()
	if fr := rr.(*fileRunReader[T]); (fr.br == nil) != direct {
		t.Fatalf("direct read path = %v, want %v", fr.br == nil, direct)
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
		out[i] = make([]byte, len(run)*codec.Size())
		for j, v := range run {
			codec.Encode(out[i][j*codec.Size():], v)
		}
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
	xs := make([]T, n)
	for i := range xs {
		xs[i] = codec.Decode(raw[i*codec.Size():])
	}
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
