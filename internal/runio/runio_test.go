package runio

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func tmpPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "data.run")
}

func TestWriteReadRoundTripInt64(t *testing.T) {
	path := tmpPath(t)
	want := []int64{5, -3, 0, 9, 9, 7, 1 << 40}
	if err := WriteFile(path, Int64Codec{}, want); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFile(path, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() != int64(len(want)) {
		t.Fatalf("Count = %d, want %d", d.Count(), len(want))
	}
	got, err := ReadAll[int64](d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round trip: got %v, want %v", got, want)
		}
	}
}

func TestWriteReadRoundTripFloat64(t *testing.T) {
	path := tmpPath(t)
	want := []float64{3.14, -2.5, 0, 1e300, -1e-300}
	if err := WriteFile(path, Float64Codec{}, want); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFile(path, Float64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll[float64](d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round trip: got %v, want %v", got, want)
		}
	}
}

func TestRunsExactAndRagged(t *testing.T) {
	path := tmpPath(t)
	data := make([]int64, 10)
	for i := range data {
		data[i] = int64(i)
	}
	if err := WriteFile(path, Int64Codec{}, data); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFile(path, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	// m=4 over 10 elements: runs of 4, 4, 2.
	rr, err := d.Runs(4)
	if err != nil {
		t.Fatal(err)
	}
	var lens []int
	total := 0
	for {
		run, err := rr.NextRun()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		lens = append(lens, len(run))
		for _, v := range run {
			if v != int64(total) {
				t.Fatalf("element %d = %d", total, v)
			}
			total++
		}
	}
	if total != 10 || len(lens) != 3 || lens[0] != 4 || lens[1] != 4 || lens[2] != 2 {
		t.Fatalf("run lengths = %v, total %d", lens, total)
	}
}

func TestRunsRepeatedScans(t *testing.T) {
	path := tmpPath(t)
	if err := WriteFile(path, Int64Codec{}, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFile(path, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		got, err := ReadAll[int64](d)
		if err != nil || len(got) != 3 {
			t.Fatalf("pass %d: %v %v", pass, got, err)
		}
	}
	if d.Stats().ReadOps != 3 {
		t.Errorf("ReadOps = %d, want 3", d.Stats().ReadOps)
	}
}

func TestEmptyFile(t *testing.T) {
	path := tmpPath(t)
	if err := WriteFile(path, Int64Codec{}, nil); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFile(path, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() != 0 {
		t.Fatalf("Count = %d", d.Count())
	}
	rr, err := d.Runs(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.NextRun(); err != io.EOF {
		t.Fatalf("NextRun on empty = %v, want EOF", err)
	}
}

func TestCodecMismatch(t *testing.T) {
	path := tmpPath(t)
	if err := WriteFile(path, Int64Codec{}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, Float64Codec{}); !errors.Is(err, ErrCodecMismatch) {
		t.Fatalf("error = %v, want ErrCodecMismatch", err)
	}
}

func TestBadMagic(t *testing.T) {
	path := tmpPath(t)
	if err := os.WriteFile(path, []byte("NOTARUNFILE_____________________"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, Int64Codec{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("error = %v, want ErrBadMagic", err)
	}
}

// TestScanDetectsCorruption flips one payload bit: a scan of the whole
// file, on the direct and the decode path and as a section that covers
// the file, must fail with ErrCorrupt at its end, and a clean file must
// read back. A section of part of the file is not checked.
func TestScanDetectsCorruption(t *testing.T) {
	path := tmpPath(t)
	xs := []int64{1, 2, 3, 4, 5, 6, 7}
	if err := WriteFile(path, Int64Codec{}, xs); err != nil {
		t.Fatal(err)
	}
	scans := func() map[string]Dataset[int64] {
		direct, err := OpenFile(path, Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := OpenFile[int64](path, decodeOnly[int64]{Int64Codec{}})
		if err != nil {
			t.Fatal(err)
		}
		whole, err := direct.Section(0, direct.Count())
		if err != nil {
			t.Fatal(err)
		}
		return map[string]Dataset[int64]{"direct": direct, "decode": decoded, "whole section": whole}
	}
	for name, d := range scans() {
		if got, err := ReadAll(d); err != nil || !slices.Equal(got, xs) {
			t.Fatalf("%s: clean file read %v, %v", name, got, err)
		}
	}
	// Flip one payload bit: byte 3 of the first key is 0x00.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x04}, headerSize+3); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for name, d := range scans() {
		for _, m := range []int{2, 7, 8} {
			rr, err := d.Runs(m)
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, err = rr.NextRun()
				if err != nil {
					break
				}
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, runs of %d: scan of a corrupt file ends in %v, want ErrCorrupt", name, m, err)
			}
		}
	}
	d, err := OpenFile(path, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := d.Section(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ReadAll[int64](part); err != nil || len(got) != 6 || got[0] == xs[0] {
		t.Fatalf("part of the file: read %v, %v; want the corrupt first key, unchecked", got, err)
	}
}

func TestTruncatedPayload(t *testing.T) {
	path := tmpPath(t)
	if err := WriteFile(path, Int64Codec{}, []int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, headerSize+8*2); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFile(path, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := d.Runs(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.NextRun(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NextRun on truncated file = %v, want ErrCorrupt", err)
	}
}

func TestWriterUseAfterClose(t *testing.T) {
	path := tmpPath(t)
	w, err := NewWriter(path, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := w.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close = %v, want ErrClosed", err)
	}
}

func TestSortedWriter(t *testing.T) {
	path := tmpPath(t)
	w, err := NewSortedWriter(path, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, 2, 2, 5); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(4); err == nil {
		t.Fatal("SortedWriter accepted out-of-order element")
	}
	w.Close()
}

func TestWriteFileFunc(t *testing.T) {
	path := tmpPath(t)
	n := int64(200_000) // crosses the internal chunk boundary
	if err := WriteFileFunc(path, Int64Codec{}, n, func(i int64) int64 { return i * 3 }); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFile(path, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() != n {
		t.Fatalf("Count = %d, want %d", d.Count(), n)
	}
	got, err := ReadAll[int64](d)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int64(i)*3 {
			t.Fatalf("element %d = %d", i, v)
		}
	}
}

func TestMemoryDataset(t *testing.T) {
	data := []int64{4, 5, 6, 7, 8}
	d := NewMemoryDataset(data, 8)
	rr, err := d.Runs(2)
	if err != nil {
		t.Fatal(err)
	}
	run, err := rr.NextRun()
	if err != nil || len(run) != 2 || run[0] != 4 {
		t.Fatalf("first run = %v, %v", run, err)
	}
	// Mutating the returned run must not corrupt the dataset.
	run[0] = -1
	got, err := ReadAll[int64](d)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 4 {
		t.Fatal("run mutation leaked into dataset")
	}
	if d.Stats().BytesRead == 0 || d.Stats().ReadOps == 0 {
		t.Error("memory dataset must account I/O")
	}
}

func TestMemoryDatasetBadRunLen(t *testing.T) {
	d := NewMemoryDataset([]int64{1}, 8)
	if _, err := d.Runs(0); err == nil {
		t.Fatal("Runs(0) should fail")
	}
}

func TestDiskModelTime(t *testing.T) {
	m := DiskModel{SeekTime: 10 * time.Millisecond, BytesPerSecond: 1 << 20}
	s := Stats{ReadOps: 2, BytesRead: 1 << 20}
	got := m.Time(s)
	want := 20*time.Millisecond + time.Second
	if got != want {
		t.Fatalf("Time = %v, want %v", got, want)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{ReadOps: 1, BytesRead: 10, WriteOps: 2, BytesWritten: 20}
	a.Add(Stats{ReadOps: 3, BytesRead: 30, WriteOps: 4, BytesWritten: 40})
	if a.ReadOps != 4 || a.BytesRead != 40 || a.WriteOps != 6 || a.BytesWritten != 60 {
		t.Fatalf("Add = %+v", a)
	}
}

// Property: file round trip preserves arbitrary int64 slices.
func TestQuickFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dir := t.TempDir()
	i := 0
	f := func(xs []int64) bool {
		i++
		path := filepath.Join(dir, "rt", itoa(i)+".run")
		os.MkdirAll(filepath.Dir(path), 0o755)
		if err := WriteFile(path, Int64Codec{}, xs); err != nil {
			return false
		}
		d, err := OpenFile(path, Int64Codec{})
		if err != nil {
			return false
		}
		got, err := ReadAll[int64](d)
		if err != nil || len(got) != len(xs) {
			return false
		}
		for j := range xs {
			if got[j] != xs[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

func TestPrefetchDeliversAllRunsInOrder(t *testing.T) {
	data := make([]int64, 10_000)
	for i := range data {
		data[i] = int64(i)
	}
	d := NewMemoryDataset(data, 8)
	rr, err := d.Runs(700)
	if err != nil {
		t.Fatal(err)
	}
	p := Prefetch[int64](rr, 2)
	if p.Count() != 10_000 || p.RunLen() != 700 {
		t.Fatalf("Count/RunLen = %d/%d", p.Count(), p.RunLen())
	}
	next := int64(0)
	for {
		run, err := p.NextRun()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range run {
			if v != next {
				t.Fatalf("element %d = %d", next, v)
			}
			next++
		}
	}
	if next != 10_000 {
		t.Fatalf("delivered %d elements", next)
	}
	// EOF is sticky.
	if _, err := p.NextRun(); err != io.EOF {
		t.Fatalf("post-EOF = %v", err)
	}
}

func TestPrefetchStopEarly(t *testing.T) {
	data := make([]int64, 100_000)
	d := NewMemoryDataset(data, 8)
	rr, err := d.Runs(100)
	if err != nil {
		t.Fatal(err)
	}
	p := Prefetch[int64](rr, 4)
	if _, err := p.NextRun(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
}

func TestPrefetchPropagatesErrors(t *testing.T) {
	path := tmpPath(t)
	if err := WriteFile(path, Int64Codec{}, []int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, headerSize+8); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFile(path, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := d.Runs(4)
	if err != nil {
		t.Fatal(err)
	}
	p := Prefetch[int64](rr, 1)
	if _, err := p.NextRun(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error = %v, want ErrCorrupt", err)
	}
}

func TestWriteReadRoundTrip32BitCodecs(t *testing.T) {
	t.Run("int32", func(t *testing.T) {
		path := tmpPath(t)
		want := []int32{5, -3, 0, 1 << 30, -1 << 30}
		if err := WriteFile(path, Int32Codec{}, want); err != nil {
			t.Fatal(err)
		}
		d, err := OpenFile(path, Int32Codec{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll[int32](d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round trip: got %v, want %v", got, want)
			}
		}
	})
	t.Run("uint32", func(t *testing.T) {
		path := tmpPath(t)
		want := []uint32{0, 1, 1<<32 - 1}
		if err := WriteFile(path, Uint32Codec{}, want); err != nil {
			t.Fatal(err)
		}
		d, err := OpenFile(path, Uint32Codec{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll[uint32](d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round trip: got %v, want %v", got, want)
			}
		}
	})
	t.Run("float32", func(t *testing.T) {
		path := tmpPath(t)
		want := []float32{3.14, -2.5, 0, 1e30, -1e-30}
		if err := WriteFile(path, Float32Codec{}, want); err != nil {
			t.Fatal(err)
		}
		d, err := OpenFile(path, Float32Codec{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll[float32](d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round trip: got %v, want %v", got, want)
			}
		}
	})
}

func TestCodecKindsDistinct(t *testing.T) {
	kinds := []uint16{
		Int64Codec{}.Kind(), Float64Codec{}.Kind(), Uint64Codec{}.Kind(),
		Int32Codec{}.Kind(), Uint32Codec{}.Kind(), Float32Codec{}.Kind(),
	}
	seen := map[uint16]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Fatalf("duplicate codec kind %d", k)
		}
		seen[k] = true
		if kindName(k) == "" || kindName(k)[:4] == "unkn" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

// File sections: run-aligned ranges over one file behave like independent
// datasets and reproduce the file's elements exactly.
func TestFileSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sec.run")
	const n, runLen = 1050, 100
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i * 3)
	}
	if err := WriteFile(path, Int64Codec{}, xs); err != nil {
		t.Fatal(err)
	}
	fd, err := OpenFile(path, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	sections, err := fd.Sections(3, runLen)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for i, s := range sections {
		if i < len(sections)-1 && s.Count()%runLen != 0 {
			t.Errorf("interior section %d has ragged count %d", i, s.Count())
		}
		vals, err := ReadAll[int64](s)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(vals)) != s.Count() {
			t.Errorf("section %d delivered %d of %d elements", i, len(vals), s.Count())
		}
		got = append(got, vals...)
	}
	if len(got) != n {
		t.Fatalf("sections cover %d of %d elements", len(got), n)
	}
	for i := range got {
		if got[i] != xs[i] {
			t.Fatalf("element %d: got %d, want %d", i, got[i], xs[i])
		}
	}
	// Sections are rescannable and account their own I/O.
	if _, err := ReadAll[int64](sections[1]); err != nil {
		t.Fatal(err)
	}
	if st := sections[1].Stats(); st.ReadOps == 0 || st.BytesRead == 0 {
		t.Errorf("section stats not accounted: %+v", st)
	}
	if _, err := fd.Section(-1, 5); err == nil {
		t.Error("negative start should fail")
	}
	if _, err := fd.Section(0, n+1); err == nil {
		t.Error("end past count should fail")
	}
}

func TestShardRanges(t *testing.T) {
	ranges, err := ShardRanges(1050, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 3 || ranges[0][0] != 0 || ranges[len(ranges)-1][1] != 1050 {
		t.Fatalf("ranges = %v", ranges)
	}
	prev := int64(0)
	for i, r := range ranges {
		if r[0] != prev {
			t.Errorf("range %d not contiguous: %v", i, ranges)
		}
		if i < len(ranges)-1 && (r[1]-r[0])%100 != 0 {
			t.Errorf("interior range %d not run-aligned: %v", i, r)
		}
		prev = r[1]
	}
	if _, err := ShardRanges(10, 0, 100); err == nil {
		t.Error("0 shards should fail")
	}
	if _, err := ShardRanges(10, 2, 0); err == nil {
		t.Error("0 runLen should fail")
	}
}
