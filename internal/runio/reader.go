package runio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
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
// shorter) and io.EOF after the last run. Implementations may reuse the
// returned slice's backing array between calls only if documented; the
// file and memory readers here hand out slices the consumer owns, because
// OPAQ's sample phase reorders runs in place, and a file reader fills each
// one straight from the file wherever the element's codec allows (see
// FileDataset.Runs). Each is freshly allocated unless the consumer
// recycled one (see Recycler).
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

// Recycler is implemented by a RunReader that can refill a run its
// consumer is done with instead of allocating a new one. After
// Recycle(run), a later NextRun may return run's memory, overwritten, so
// the consumer must neither touch run again nor recycle it twice. Recycle
// must be safe to call from any goroutine, also while NextRun runs. The
// file and memory readers implement it: they ignore a run whose capacity
// is not their run length, and any run once the scan is closed.
// PrefetchReader forwards to the reader it wraps.
type Recycler[T any] interface {
	Recycle(run []T)
}

// spareRuns is a reader's free list of recycled runs, shared by its
// NextRun and its consumers' Recycle calls under a lock. It never holds
// more runs than the reader allocated at full length, so recycling cannot
// grow the scan's memory beyond the most runs it had out at once.
type spareRuns[T any] struct {
	m    int // the run length; only runs of this capacity are kept
	mu   sync.Mutex
	runs [][]T
	made int // full-length runs allocated; bounds len(runs)
}

// get returns a run of n ≤ m elements with unspecified contents: a
// recycled one if any is spare, a new one otherwise.
func (s *spareRuns[T]) get(n int) []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := len(s.runs); k > 0 {
		run := s.runs[k-1][:n]
		s.runs = s.runs[:k-1]
		return run
	}
	if n == s.m {
		s.made++
	}
	return make([]T, n)
}

// put keeps run for a later get; see Recycler.
func (s *spareRuns[T]) put(run []T) {
	if cap(run) != s.m {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.runs) < s.made {
		s.runs = append(s.runs, run)
	}
}

// drop releases every spare run and turns later puts into no-ops; readers
// call it when their scan closes.
func (s *spareRuns[T]) drop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs, s.made = nil, 0
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
// Dataset over it.
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
// into a run-sized buffer and decode them there.
func (d *FileDataset[T]) Runs(m int) (RunReader[T], error) {
	return d.scan(0, int64(d.hdr.count), m, &d.stats)
}

// scan opens a sequential scan of the count elements from element start
// on, with runs of m elements, accounting to stats. It picks the read path
// once, for the whole scan.
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
	r := &fileRunReader[T]{f: f, stats: stats, count: count, m: m, left: count, codec: d.codec, spare: spareRuns[T]{m: m}}
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

// Verify re-reads the whole file and checks the payload CRC, returning
// ErrCorrupt (wrapped) on mismatch.
func (d *FileDataset[T]) Verify() error {
	f, err := os.Open(d.path)
	if err != nil {
		return fmt.Errorf("runio: open %s: %w", d.path, err)
	}
	defer f.Close()
	if _, err := f.Seek(headerSize, io.SeekStart); err != nil {
		return fmt.Errorf("runio: seek: %w", err)
	}
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, f)
	if err != nil {
		return fmt.Errorf("runio: checksum scan: %w", err)
	}
	want := int64(d.hdr.count) * int64(d.codec.Size())
	if n != want {
		return fmt.Errorf("%w: payload is %d bytes, header promises %d", ErrCorrupt, n, want)
	}
	if h.Sum32() != d.hdr.crc {
		return fmt.Errorf("%w: payload CRC %08x, header says %08x", ErrCorrupt, h.Sum32(), d.hdr.crc)
	}
	return nil
}

// fileRunReader is a scan over a run file or a section of one. With a
// raw codec (see rawCodec) ebuf is nil and NextRun reads each run straight
// into its own memory; otherwise it reads each run's records into ebuf and
// decodes them in one codec call. Either way the run's memory is a
// recycled run when the consumer handed one back (see Recycler).
type fileRunReader[T any] struct {
	f     *os.File
	stats *Stats // accounting sink (the owning dataset or section)
	count int64  // total elements this scan delivers
	m     int
	left  int64
	ebuf  []byte
	codec Codec[T]
	done  bool
	spare spareRuns[T]
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
	run := r.spare.get(n)
	var err error
	if r.ebuf == nil {
		_, err = io.ReadFull(r.f, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(run))), want))
	} else if _, err = io.ReadFull(r.f, r.ebuf[:want]); err == nil {
		run = r.codec.DecodeElems(run[:0], r.ebuf[:want])
	}
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("%w: truncated run (want %d bytes): %v", ErrCorrupt, want, err)
	}
	r.left -= int64(n)
	r.stats.ReadOps++
	r.stats.BytesRead += int64(want)
	if r.left == 0 {
		r.Close()
	}
	return run, nil
}

// Recycle implements Recycler.
func (r *fileRunReader[T]) Recycle(run []T) { r.spare.put(run) }

// Close implements RunReader: it releases the scan's file descriptor and
// spare runs. The exhausted path (EOF or read error) closes through here
// too, so an early-exit consumer and a full scan end in the same state.
func (r *fileRunReader[T]) Close() error {
	if r.done {
		return nil
	}
	r.done = true
	r.spare.drop()
	return r.f.Close()
}

// Count implements RunReader.
func (r *fileRunReader[T]) Count() int64 { return r.count }

// RunLen implements RunReader.
func (r *fileRunReader[T]) RunLen() int { return r.m }

// ReadAll loads an entire dataset into memory; intended for oracles and
// tests, not for the one-pass algorithm itself.
func ReadAll[T any](d Dataset[T]) ([]T, error) {
	rr, err := d.Runs(1 << 16)
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
	}
}
