package runio

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"os"
)

// writeChunk caps a Writer's buffer: Append encodes elements into it and
// writes it out, folding it into the payload CRC, each time it fills. It
// exceeds any element size the header's uint16 field can record.
const writeChunk = 1 << 20

// Writer streams elements into a run file. It buffers encoded elements,
// maintains a running CRC32-C of the payload, and patches the header with
// the final count and checksum on Close.
type Writer[T any] struct {
	f      *os.File
	codec  Codec[T]
	buf    []byte // encoded elements not yet written
	count  uint64
	crc    uint32
	stats  *Stats
	closed bool
}

// NewWriter creates (truncating) the run file at path.
func NewWriter[T any](path string, codec Codec[T]) (*Writer[T], error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("runio: create %s: %w", path, err)
	}
	// Placeholder header; patched on Close.
	if _, err := f.Write(encodeHeader(header{kind: codec.Kind(), elemSize: uint16(codec.Size())})); err != nil {
		f.Close()
		return nil, fmt.Errorf("runio: write header: %w", err)
	}
	return &Writer[T]{f: f, codec: codec, stats: &Stats{}}, nil
}

// Append writes vs to the file in order.
func (w *Writer[T]) Append(vs ...T) error {
	if w.closed {
		return ErrClosed
	}
	size := w.codec.Size()
	if w.buf == nil {
		w.buf = make([]byte, 0, min(len(vs)*size, writeChunk))
	}
	w.count += uint64(len(vs))
	w.stats.WriteOps++
	w.stats.BytesWritten += int64(len(vs) * size)
	for len(vs) > 0 {
		k := min(len(vs), (writeChunk-len(w.buf))/size)
		if k == 0 {
			if err := w.flush(); err != nil {
				return fmt.Errorf("runio: append: %w", err)
			}
			continue
		}
		w.buf = w.codec.AppendElems(w.buf, vs[:k])
		vs = vs[k:]
	}
	return nil
}

// flush writes the buffered elements to the file.
func (w *Writer[T]) flush() error {
	w.crc = crc32.Update(w.crc, castagnoli, w.buf)
	_, err := w.f.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Count returns the number of elements appended so far.
func (w *Writer[T]) Count() uint64 { return w.count }

// Stats returns the accumulated write accounting.
func (w *Writer[T]) Stats() Stats { return *w.stats }

// Close flushes buffered data, patches the header with the final element
// count and payload checksum, and closes the file.
func (w *Writer[T]) Close() error {
	if w.closed {
		return ErrClosed
	}
	w.closed = true
	if err := w.flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("runio: flush: %w", err)
	}
	hdr := encodeHeader(header{
		kind:     w.codec.Kind(),
		elemSize: uint16(w.codec.Size()),
		count:    w.count,
		crc:      w.crc,
	})
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		w.f.Close()
		return fmt.Errorf("runio: patch header: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("runio: close: %w", err)
	}
	return nil
}

// WriteFile writes all of xs to a run file at path in one call.
func WriteFile[T any](path string, codec Codec[T], xs []T) error {
	w, err := NewWriter(path, codec)
	if err != nil {
		return err
	}
	if err := w.Append(xs...); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// WriteFileFunc streams n generated elements to a run file without
// materializing them, so datasets larger than memory can be produced.
// gen(i) returns the i-th element.
func WriteFileFunc[T any](path string, codec Codec[T], n int64, gen func(i int64) T) error {
	w, err := NewWriter(path, codec)
	if err != nil {
		return err
	}
	const chunk = 64 * 1024
	buf := make([]T, 0, chunk)
	for i := int64(0); i < n; i++ {
		buf = append(buf, gen(i))
		if len(buf) == chunk {
			if err := w.Append(buf...); err != nil {
				w.Close()
				return err
			}
			buf = buf[:0]
		}
	}
	if err := w.Append(buf...); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// SortedWriter enforces that appended elements arrive in non-decreasing
// order; used when persisting merged sample lists and sorted buckets.
type SortedWriter[T cmp.Ordered] struct {
	*Writer[T]
	last    T
	started bool
}

// NewSortedWriter wraps NewWriter with an order check on Append.
func NewSortedWriter[T cmp.Ordered](path string, codec Codec[T]) (*SortedWriter[T], error) {
	w, err := NewWriter(path, codec)
	if err != nil {
		return nil, err
	}
	return &SortedWriter[T]{Writer: w}, nil
}

// Append writes vs, failing if any element is smaller than its predecessor.
func (w *SortedWriter[T]) Append(vs ...T) error {
	for _, v := range vs {
		if w.started && v < w.last {
			return fmt.Errorf("runio: SortedWriter: out-of-order element %v after %v", v, w.last)
		}
		w.last, w.started = v, true
	}
	return w.Writer.Append(vs...)
}
