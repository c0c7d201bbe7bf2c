package runio

import (
	"fmt"
	"io"
	"unsafe"
)

// ElemSize returns the modeled on-disk width in bytes of one element of
// type T: its in-memory size, which for every fixed-width numeric key type
// equals the width of its Codec (4 for the 32-bit types, 8 for the 64-bit
// ones). In-memory datasets charge this width in their I/O accounting so
// that modeled stats for a given element type match the file-backed path.
func ElemSize[T any]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// MemoryDataset is a Dataset over an in-memory slice. It charges the same
// I/O accounting as a file-backed dataset so simulated-time experiments can
// run entirely in memory; elemSize is the modeled on-disk element width.
type MemoryDataset[T any] struct {
	data     []T
	elemSize int
	stats    Stats
}

// NewMemoryDataset wraps data; elemSize is the per-element byte width used
// for accounting (8 for the int64/float64 codecs).
func NewMemoryDataset[T any](data []T, elemSize int) *MemoryDataset[T] {
	return &MemoryDataset[T]{data: data, elemSize: elemSize}
}

// Count implements Dataset.
func (d *MemoryDataset[T]) Count() int64 { return int64(len(d.data)) }

// Stats implements Dataset.
func (d *MemoryDataset[T]) Stats() Stats { return d.stats }

// Runs implements Dataset.
func (d *MemoryDataset[T]) Runs(m int) (RunReader[T], error) {
	if m <= 0 {
		return nil, fmt.Errorf("runio: run length must be positive, got %d", m)
	}
	return &memRunReader[T]{d: d, m: m}, nil
}

type memRunReader[T any] struct {
	d   *MemoryDataset[T]
	m   int
	pos int
}

// NextRun implements RunReader. Each run is a copy, into a run from the
// run pool: the sample phase reorders runs in place, and the dataset must
// stay scannable.
func (r *memRunReader[T]) NextRun() ([]T, error) {
	if r.pos >= len(r.d.data) {
		return nil, io.EOF
	}
	end := r.pos + r.m
	if end > len(r.d.data) {
		end = len(r.d.data)
	}
	run := append(GetRun[T](r.m, end-r.pos), r.d.data[r.pos:end]...)
	r.d.stats.ReadOps++
	r.d.stats.BytesRead += int64(len(run) * r.d.elemSize)
	r.pos = end
	return run, nil
}

// Close implements RunReader: it marks the scan exhausted.
func (r *memRunReader[T]) Close() error {
	r.pos = len(r.d.data)
	return nil
}

// Count implements RunReader.
func (r *memRunReader[T]) Count() int64 { return int64(len(r.d.data)) }

// RunLen implements RunReader.
func (r *memRunReader[T]) RunLen() int { return r.m }
