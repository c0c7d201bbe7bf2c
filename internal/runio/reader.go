package runio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"
	"unsafe"
)

// Stats accumulates I/O accounting for a reader or writer. The parallel
// experiments convert Stats into simulated time through a DiskModel.
type Stats struct {
	ReadOps      int64
	BytesRead    int64
	WriteOps     int64
	BytesWritten int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ReadOps += other.ReadOps
	s.BytesRead += other.BytesRead
	s.WriteOps += other.WriteOps
	s.BytesWritten += other.BytesWritten
}

// DiskModel converts I/O accounting into simulated time, standing in for
// the per-node local disks of the paper's IBM SP-2. The defaults are
// calibrated (see internal/parallel) so that I/O accounts for roughly half
// of total simulated execution time, matching Table 11 of the paper.
type DiskModel struct {
	// SeekTime is charged once per I/O operation.
	SeekTime time.Duration
	// BytesPerSecond is the sequential transfer rate.
	BytesPerSecond float64
}

// DefaultDiskModel resembles a mid-1990s SCSI disk doing large sequential
// reads: 1 ms effective positioning cost per run-sized request, 8 MB/s
// sustained transfer — the class of hardware attached to SP-2 nodes.
func DefaultDiskModel() DiskModel {
	return DiskModel{SeekTime: 1 * time.Millisecond, BytesPerSecond: 8 << 20}
}

// Time returns the simulated duration of the accounted I/O.
func (d DiskModel) Time(s Stats) time.Duration {
	ops := s.ReadOps + s.WriteOps
	bytes := s.BytesRead + s.BytesWritten
	transfer := time.Duration(float64(bytes) / d.BytesPerSecond * float64(time.Second))
	return time.Duration(ops)*d.SeekTime + transfer
}

// RunReader delivers a dataset as consecutive runs. NextRun returns the
// next run (at most the configured run length; only the final run may be
// shorter) and io.EOF after the last run. A run belongs to its consumer:
// the reader never touches it again, because OPAQ's sample phase reorders
// runs in place. The file and memory readers take each run's memory from
// the run pool (see GetRun), a file reader filling it straight from the
// file wherever the element's codec allows (see FileDataset.Runs), so a
// consumer done with a run may give it to the pool with PutRun for a
// later run to be read into.
//
// A reader owns whatever resource backs the scan (for file-backed datasets,
// an open descriptor). Consumers that abandon a scan before io.EOF must
// call Close; reading through to EOF or a read error also releases the
// resource, after which Close is a no-op.
type RunReader[T any] interface {
	// NextRun returns the next run of elements.
	NextRun() ([]T, error)
	// Count returns the total number of elements in the dataset.
	Count() int64
	// RunLen returns the configured run length m.
	RunLen() int
	// Close releases the resources backing the scan. It is idempotent and
	// safe to call after EOF; subsequent NextRun calls return io.EOF.
	Close() error
}

// Dataset abstracts a source of elements that can be scanned as runs any
// number of times (each scan is one "pass" in the paper's sense).
type Dataset[T any] interface {
	// Count returns the total number of elements.
	Count() int64
	// Runs starts a new sequential scan with runs of m elements.
	Runs(m int) (RunReader[T], error)
	// Stats returns cumulative I/O accounting across all scans.
	Stats() Stats
}

// FileDataset is a Dataset backed by a run file on disk.
type FileDataset[T any] struct {
	path  string
	codec Codec[T]
	hdr   header
	stats Stats
}

// OpenFile validates the header of the run file at path and returns a
// Dataset over it. A file that holds bytes past the payload its header
// counts fails with ErrCorrupt: a Writer that never reached Close leaves
// its placeholder header, which counts no elements, in front of
// everything it wrote. A file cut short of its payload fails at the read
// that reaches the cut.
func OpenFile[T any](path string, codec Codec[T]) (*FileDataset[T], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runio: open %s: %w", path, err)
	}
	defer f.Close()
	buf := make([]byte, headerSize)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("runio: read header of %s: %w", path, err)
	}
	hdr, err := decodeHeader(buf)
	if err != nil {
		return nil, fmt.Errorf("runio: %s: %w", path, err)
	}
	if hdr.kind != codec.Kind() {
		return nil, fmt.Errorf("%w: file %s holds %s, reader expects %s",
			ErrCodecMismatch, path, kindName(hdr.kind), kindName(codec.Kind()))
	}
	if int(hdr.elemSize) != codec.Size() {
		return nil, fmt.Errorf("%w: element size %d, codec size %d", ErrCorrupt, hdr.elemSize, codec.Size())
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("runio: stat %s: %w", path, err)
	}
	if extra := fi.Size() - headerSize - int64(hdr.count)*int64(hdr.elemSize); extra > 0 {
		return nil, fmt.Errorf("%w: %s holds %d bytes past the %d elements its header counts (a writer not closed?)",
			ErrCorrupt, path, extra, hdr.count)
	}
	return &FileDataset[T]{path: path, codec: codec, hdr: hdr}, nil
}

// Count implements Dataset.
func (d *FileDataset[T]) Count() int64 { return int64(d.hdr.count) }

// Stats implements Dataset.
func (d *FileDataset[T]) Stats() Stats { return d.stats }

// Path returns the underlying file path.
func (d *FileDataset[T]) Path() string { return d.path }

// Runs implements Dataset: it opens a fresh sequential scan. For the six
// built-in codecs on a little-endian host, a run's records are the
// elements' own memory layout, so each run is read from the file straight
// into the run's memory: one copy out of the kernel and no decode. Other
// codecs, and every codec on a big-endian host, read each run's records
// into a run-sized buffer and decode them there. Either way the scan
// folds the records into a CRC32-C as it reads them and, when the
// payload does not match the header's checksum, returns ErrCorrupt in
// place of the last run. A section scan (see Section) checks nothing
// unless it covers the whole file.
func (d *FileDataset[T]) Runs(m int) (RunReader[T], error) {
	return d.scan(0, int64(d.hdr.count), m, &d.stats)
}

// scan opens a sequential scan of the count elements from element start
// on, with runs of m elements, accounting to stats. It picks the read path
// once, for the whole scan, and checks the payload CRC if the scan covers
// the whole file.
func (d *FileDataset[T]) scan(start, count int64, m int, stats *Stats) (RunReader[T], error) {
	if m <= 0 {
		return nil, fmt.Errorf("runio: run length must be positive, got %d", m)
	}
	f, err := os.Open(d.path)
	if err != nil {
		return nil, fmt.Errorf("runio: open %s: %w", d.path, err)
	}
	if _, err := f.Seek(headerSize+start*int64(d.codec.Size()), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("runio: seek to scan start: %w", err)
	}
	r := &fileRunReader[T]{f: f, stats: stats, count: count, m: m, left: count, codec: d.codec,
		check: start == 0 && count == int64(d.hdr.count), wantCRC: d.hdr.crc}
	if !rawCodec(d.codec) {
		r.ebuf = make([]byte, m*d.codec.Size())
	}
	return r, nil
}

// littleEndian reports whether this host stores integers little-endian,
// the byte order of every built-in codec's records.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// rawCodec reports whether c's record of an element is the element's
// in-memory representation on this host: true for the six built-in
// fixed-width codecs on a little-endian host.
func rawCodec[T any](c Codec[T]) bool {
	switch any(c).(type) {
	case Int64Codec, Float64Codec, Uint64Codec, Int32Codec, Uint32Codec, Float32Codec:
		return littleEndian
	}
	return false
}

// fileRunReader is a scan over a run file or a section of one. With a
// raw codec (see rawCodec) ebuf is nil and NextRun reads each run straight
// into its own memory; otherwise it reads each run's records into ebuf and
// decodes them in one codec call. Either way the run's memory comes from
// the run pool.
type fileRunReader[T any] struct {
	f     *os.File
	stats *Stats // accounting sink (the owning dataset or section)
	count int64  // total elements this scan delivers
	m     int
	left  int64
	ebuf  []byte
	codec Codec[T]
	done  bool
	// check says the scan covers the whole file, whose records fold into
	// crc as they are read, to be matched against wantCRC at the end.
	check        bool
	crc, wantCRC uint32
}

// NextRun implements RunReader.
func (r *fileRunReader[T]) NextRun() ([]T, error) {
	if r.done || r.left == 0 {
		r.Close()
		return nil, io.EOF
	}
	n := r.m
	if int64(n) > r.left {
		n = int(r.left)
	}
	want := n * r.codec.Size()
	run := GetRun[T](r.m, n)[:n]
	var raw []byte
	if r.ebuf == nil {
		raw = unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(run))), want)
	} else {
		raw = r.ebuf[:want]
	}
	if _, err := io.ReadFull(r.f, raw); err != nil {
		r.Close()
		return nil, fmt.Errorf("%w: truncated run (want %d bytes): %v", ErrCorrupt, want, err)
	}
	if r.check {
		r.crc = crc32.Update(r.crc, castagnoli, raw)
	}
	if r.ebuf != nil {
		run = r.codec.DecodeElems(run[:0], raw)
	}
	r.left -= int64(n)
	r.stats.ReadOps++
	r.stats.BytesRead += int64(want)
	if r.left == 0 {
		r.Close()
		if r.check && r.crc != r.wantCRC {
			return nil, fmt.Errorf("%w: payload CRC %08x, header says %08x", ErrCorrupt, r.crc, r.wantCRC)
		}
	}
	return run, nil
}

// Close implements RunReader: it releases the scan's file descriptor. The
// exhausted path (EOF or read error) closes through here too, so an
// early-exit consumer and a full scan end in the same state.
func (r *fileRunReader[T]) Close() error {
	if r.done {
		return nil
	}
	r.done = true
	return r.f.Close()
}

// Count implements RunReader.
func (r *fileRunReader[T]) Count() int64 { return r.count }

// RunLen implements RunReader.
func (r *fileRunReader[T]) RunLen() int { return r.m }

// ReadAll loads an entire dataset into memory; intended for oracles and
// tests, not for the one-pass algorithm itself. It gives each run back to
// the run pool once copied, so it allocates its result and about one run.
func ReadAll[T any](d Dataset[T]) ([]T, error) {
	const m = 1 << 16
	rr, err := d.Runs(m)
	if err != nil {
		return nil, err
	}
	defer rr.Close()
	out := make([]T, 0, d.Count())
	for {
		run, err := rr.NextRun()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, run...)
		if cap(run) == m {
			PutRun(run)
		}
	}
}
