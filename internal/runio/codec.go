// Package runio provides the disk-resident dataset substrate that OPAQ runs
// over: a binary run-file format with a self-describing header, buffered
// sequential writers and readers that deliver the data as fixed-size runs,
// an in-memory dataset behind the same interfaces, and I/O accounting with
// a pluggable disk cost model.
//
// The paper assumes the input "is disk-resident" and is consumed as r runs
// of m elements each (Section 2); everything else about the medium is
// irrelevant to the algorithm. This package therefore exposes exactly one
// abstraction — RunReader, a sequential run iterator — and records the
// operation counts needed to model I/O time (the paper's Tables 11–12
// report I/O as ~50% of total execution time; see DiskModel).
package runio

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Codec describes how a fixed-width element type is serialized into run
// files, frames and checkpoints. It works on whole slices, so a caller
// pays one interface call per batch, not one per element.
// Implementations must be stateless and safe for concurrent use.
type Codec[T any] interface {
	// Size returns the encoded width of one element, in bytes.
	Size() int
	// Kind returns the format tag stored in the file header, so a reader
	// can reject files written with a different element type.
	Kind() uint16
	// AppendElems appends each element's record to dst.
	AppendElems(dst []byte, xs []T) []byte
	// DecodeElems appends each record in src, whose length must be a
	// multiple of Size(), to dst.
	DecodeElems(dst []T, src []byte) []T
}

// Codec kinds recorded in file headers.
const (
	KindInt64   uint16 = 1
	KindFloat64 uint16 = 2
	KindUint64  uint16 = 3
	KindInt32   uint16 = 4
	KindUint32  uint16 = 5
	KindFloat32 uint16 = 6
)

// Int64Codec encodes int64 keys little-endian; the integer-key workloads of
// the paper's evaluation use this codec.
type Int64Codec struct{}

// Size implements Codec.
func (Int64Codec) Size() int { return 8 }

// Kind implements Codec.
func (Int64Codec) Kind() uint16 { return KindInt64 }

// AppendElems implements Codec.
func (Int64Codec) AppendElems(dst []byte, xs []int64) []byte {
	for _, v := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// DecodeElems implements Codec.
func (Int64Codec) DecodeElems(dst []int64, src []byte) []int64 {
	for ; len(src) >= 8; src = src[8:] {
		dst = append(dst, int64(binary.LittleEndian.Uint64(src)))
	}
	return dst
}

// Float64Codec encodes float64 keys via their IEEE-754 bits.
type Float64Codec struct{}

// Size implements Codec.
func (Float64Codec) Size() int { return 8 }

// Kind implements Codec.
func (Float64Codec) Kind() uint16 { return KindFloat64 }

// AppendElems implements Codec.
func (Float64Codec) AppendElems(dst []byte, xs []float64) []byte {
	for _, v := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeElems implements Codec.
func (Float64Codec) DecodeElems(dst []float64, src []byte) []float64 {
	for ; len(src) >= 8; src = src[8:] {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(src)))
	}
	return dst
}

// Uint64Codec encodes uint64 keys little-endian.
type Uint64Codec struct{}

// Size implements Codec.
func (Uint64Codec) Size() int { return 8 }

// Kind implements Codec.
func (Uint64Codec) Kind() uint16 { return KindUint64 }

// AppendElems implements Codec.
func (Uint64Codec) AppendElems(dst []byte, xs []uint64) []byte {
	for _, v := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// DecodeElems implements Codec.
func (Uint64Codec) DecodeElems(dst []uint64, src []byte) []uint64 {
	for ; len(src) >= 8; src = src[8:] {
		dst = append(dst, binary.LittleEndian.Uint64(src))
	}
	return dst
}

// Int32Codec encodes int32 keys little-endian, halving the disk footprint
// for workloads whose key space fits 32 bits.
type Int32Codec struct{}

// Size implements Codec.
func (Int32Codec) Size() int { return 4 }

// Kind implements Codec.
func (Int32Codec) Kind() uint16 { return KindInt32 }

// AppendElems implements Codec.
func (Int32Codec) AppendElems(dst []byte, xs []int32) []byte {
	for _, v := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// DecodeElems implements Codec.
func (Int32Codec) DecodeElems(dst []int32, src []byte) []int32 {
	for ; len(src) >= 4; src = src[4:] {
		dst = append(dst, int32(binary.LittleEndian.Uint32(src)))
	}
	return dst
}

// Uint32Codec encodes uint32 keys little-endian.
type Uint32Codec struct{}

// Size implements Codec.
func (Uint32Codec) Size() int { return 4 }

// Kind implements Codec.
func (Uint32Codec) Kind() uint16 { return KindUint32 }

// AppendElems implements Codec.
func (Uint32Codec) AppendElems(dst []byte, xs []uint32) []byte {
	for _, v := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// DecodeElems implements Codec.
func (Uint32Codec) DecodeElems(dst []uint32, src []byte) []uint32 {
	for ; len(src) >= 4; src = src[4:] {
		dst = append(dst, binary.LittleEndian.Uint32(src))
	}
	return dst
}

// Float32Codec encodes float32 keys via their IEEE-754 bits.
type Float32Codec struct{}

// Size implements Codec.
func (Float32Codec) Size() int { return 4 }

// Kind implements Codec.
func (Float32Codec) Kind() uint16 { return KindFloat32 }

// AppendElems implements Codec.
func (Float32Codec) AppendElems(dst []byte, xs []float32) []byte {
	for _, v := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// DecodeElems implements Codec.
func (Float32Codec) DecodeElems(dst []float32, src []byte) []float32 {
	for ; len(src) >= 4; src = src[4:] {
		dst = append(dst, math.Float32frombits(binary.LittleEndian.Uint32(src)))
	}
	return dst
}

// kindName maps codec kinds to human-readable names for error messages.
func kindName(k uint16) string {
	switch k {
	case KindInt64:
		return "int64"
	case KindFloat64:
		return "float64"
	case KindUint64:
		return "uint64"
	case KindInt32:
		return "int32"
	case KindUint32:
		return "uint32"
	case KindFloat32:
		return "float32"
	default:
		return fmt.Sprintf("unknown(%d)", k)
	}
}
