// Streaming ingest frames: the wire format of the binary ingest path.
//
// A checkpoint already travels in the runio codec encoding (SaveSummary);
// frames extend the same discipline to live ingest, so an element is
// encoded exactly once — the same little-endian bytes on the socket, in a
// run file and in a checkpoint. A frame is a length-prefixed batch with
// two CRC32-C checksums: one over the fixed header (so a corrupt or lying
// length prefix is rejected *before* any payload allocation) and one over
// the payload (so a torn batch never reaches an engine).
//
// Frame layout (all integers little-endian):
//
//	offset size field
//	0      4    magic "OPQF"
//	4      1    version (1)
//	5      1    frame type (1=data, 2=ack, 3=nack)
//	6      2    codec kind (data frames; 0 otherwise)
//	8      4    payload length
//	12     4    CRC32-C of bytes [0, 12)
//	16     …    payload
//	16+len 4    CRC32-C of the payload
//
// Payloads by frame type:
//
//	data:    uint16 tenant length, tenant bytes, then elements in the codec
//	         encoding (the remaining length must divide the element size)
//	ack:     uint32 elements ingested, int64 engine element count
//	nack:    uint32 Retry-After seconds, uint16 message length, message
//
// The encoders are append-style so a steady-state sender re-uses one
// buffer per connection and allocates nothing per frame.
package runio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// FrameType discriminates ingest frames.
type FrameType uint8

// Frame types.
const (
	// FrameData carries one element batch toward an engine.
	FrameData FrameType = 1
	// FrameAck acknowledges one data frame: the batch is resident in the
	// engine (an acked batch is included in any later checkpoint).
	FrameAck FrameType = 2
	// FrameNack rejects one data frame without dropping the connection —
	// backpressure (with a Retry-After hint) or a per-frame client error.
	FrameNack FrameType = 3
)

// FrameHeaderSize is the fixed encoded size of a frame header.
const FrameHeaderSize = 16

// frameTailSize is the payload checksum trailing every frame.
const frameTailSize = 4

// DefaultMaxFramePayload caps one frame's payload when a reader passes 0:
// large enough for a million-element int64 batch, small enough that a
// malicious length prefix cannot balloon a connection buffer.
const DefaultMaxFramePayload = 8 << 20

// frameMagic opens every frame.
const frameMagic = "OPQF"

// frameVersion is the current frame-format version.
const frameVersion = 1

// ErrFrame reports a malformed or corrupt ingest frame. Framing is lost
// once it is returned from a stream: the connection must be dropped.
var ErrFrame = errors.New("runio: malformed frame")

// ErrFrameTooLarge reports a frame whose declared payload exceeds the
// reader's bound. The header checksum was valid, so this is an honest
// oversized frame (a client batching over the server's limit), not
// corruption.
var ErrFrameTooLarge = errors.New("runio: frame payload over size bound")

// FrameHeader is a decoded frame header; the payload follows on the wire.
type FrameHeader struct {
	Type FrameType
	// Kind is the codec kind of a data frame's elements (Codec.Kind).
	Kind uint16
	// Len is the payload length in bytes.
	Len uint32
}

// putFrameHeader encodes h into buf, including the header checksum.
func putFrameHeader(buf []byte, h FrameHeader) {
	copy(buf[0:4], frameMagic)
	buf[4] = frameVersion
	buf[5] = byte(h.Type)
	binary.LittleEndian.PutUint16(buf[6:], h.Kind)
	binary.LittleEndian.PutUint32(buf[8:], h.Len)
	binary.LittleEndian.PutUint32(buf[12:], crc32.Checksum(buf[:12], castagnoli))
}

// ReadFrameHeader reads and validates one frame header. maxPayload bounds
// the declared payload length (0 means DefaultMaxFramePayload); the bound
// is enforced after the header checksum, so a corrupt length fails as
// ErrFrame and only an honestly oversized frame fails as ErrFrameTooLarge.
// A stream that ends cleanly between frames returns io.EOF unwrapped, so
// connection loops can distinguish a clean close from a torn frame.
func ReadFrameHeader(r io.Reader, maxPayload uint32) (FrameHeader, error) {
	var h FrameHeader
	var buf [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		if err == io.EOF {
			return h, io.EOF
		}
		return h, fmt.Errorf("%w: short header: %v", ErrFrame, err)
	}
	if string(buf[0:4]) != frameMagic {
		return h, fmt.Errorf("%w: bad magic", ErrFrame)
	}
	if got, want := binary.LittleEndian.Uint32(buf[12:]), crc32.Checksum(buf[:12], castagnoli); got != want {
		return h, fmt.Errorf("%w: header checksum mismatch %08x != %08x", ErrFrame, got, want)
	}
	if buf[4] != frameVersion {
		return h, fmt.Errorf("%w: version %d, want %d", ErrFrame, buf[4], frameVersion)
	}
	h.Type = FrameType(buf[5])
	switch h.Type {
	case FrameData, FrameAck, FrameNack:
	default:
		return h, fmt.Errorf("%w: unknown frame type %d", ErrFrame, buf[5])
	}
	h.Kind = binary.LittleEndian.Uint16(buf[6:])
	h.Len = binary.LittleEndian.Uint32(buf[8:])
	if maxPayload == 0 {
		maxPayload = DefaultMaxFramePayload
	}
	if h.Len > maxPayload {
		return h, fmt.Errorf("%w: %d bytes, bound %d", ErrFrameTooLarge, h.Len, maxPayload)
	}
	return h, nil
}

// ReadFramePayload reads h.Len payload bytes plus the payload checksum,
// re-using buf when its capacity suffices. The allocation is bounded by
// the maxPayload already enforced on h, so a torn stream can never
// over-allocate.
func ReadFramePayload(r io.Reader, h FrameHeader, buf []byte) ([]byte, error) {
	n := int(h.Len)
	if cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, fmt.Errorf("%w: truncated payload: %v", ErrFrame, err)
	}
	var tail [frameTailSize]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return buf, fmt.Errorf("%w: missing payload checksum: %v", ErrFrame, err)
	}
	if got, want := binary.LittleEndian.Uint32(tail[:]), crc32.Checksum(buf, castagnoli); got != want {
		return buf, fmt.Errorf("%w: payload checksum mismatch %08x != %08x", ErrFrame, got, want)
	}
	return buf, nil
}

// sealFrame patches the header and payload checksum around a payload the
// caller appended after a FrameHeaderSize placeholder at start.
func sealFrame(dst []byte, start int, typ FrameType, kind uint16) []byte {
	payload := dst[start+FrameHeaderSize:]
	putFrameHeader(dst[start:], FrameHeader{Type: typ, Kind: kind, Len: uint32(len(payload))})
	var tail [frameTailSize]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Checksum(payload, castagnoli))
	return append(dst, tail[:]...)
}

// AppendDataFrame appends one data frame carrying xs to dst and returns
// the extended slice. tenant routes the batch on multi-tenant listeners
// (empty means the default tenant; on HTTP it must match the route). The
// payload — tenant plus elements — must stay within DefaultMaxFramePayload
// unless the receiver is known to accept more.
func AppendDataFrame[T any](dst []byte, codec Codec[T], tenant string, xs []T) ([]byte, error) {
	if len(tenant) > 0xFFFF {
		return dst, fmt.Errorf("%w: tenant name %d bytes", ErrFrame, len(tenant))
	}
	size := codec.Size()
	payload := 2 + len(tenant) + len(xs)*size
	if uint64(payload) > 0xFFFF_FFFF {
		return dst, fmt.Errorf("%w: batch of %d elements does not fit one frame", ErrFrame, len(xs))
	}
	start := len(dst)
	dst = slices.Grow(dst, FrameHeaderSize+payload+frameTailSize)
	var hdr [FrameHeaderSize]byte
	dst = append(dst, hdr[:]...)
	var tl [2]byte
	binary.LittleEndian.PutUint16(tl[:], uint16(len(tenant)))
	dst = append(dst, tl[:]...)
	dst = append(dst, tenant...)
	// The elements land in the grown region, so the whole append is one
	// (amortised-zero) allocation.
	dst = codec.AppendElems(dst, xs)
	return sealFrame(dst, start, FrameData, codec.Kind()), nil
}

// AppendRawFrame appends one frame of type typ carrying an opaque payload,
// sealed with the standard header and payload checksums. Callers that
// already hold an encoded payload (the coordinator's write-ahead journal
// records) frame it through this: the payload semantics live with the
// caller, the framing discipline stays here.
func AppendRawFrame(dst []byte, typ FrameType, kind uint16, payload []byte) []byte {
	start := len(dst)
	dst = slices.Grow(dst, FrameHeaderSize+len(payload)+frameTailSize)
	var hdr [FrameHeaderSize]byte
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	return sealFrame(dst, start, typ, kind)
}

// AppendAckFrame appends an ack for a data frame: count elements entered
// an engine whose element count is now n.
func AppendAckFrame(dst []byte, count uint32, n int64) []byte {
	start := len(dst)
	var hdr [FrameHeaderSize]byte
	dst = append(dst, hdr[:]...)
	var p [12]byte
	binary.LittleEndian.PutUint32(p[0:], count)
	binary.LittleEndian.PutUint64(p[4:], uint64(n))
	dst = append(dst, p[:]...)
	return sealFrame(dst, start, FrameAck, 0)
}

// AppendNackFrame appends a rejection: the data frame was not ingested,
// retry after retryAfter seconds (0 for non-retryable client errors), with
// a diagnostic message.
func AppendNackFrame(dst []byte, retryAfter uint32, msg string) []byte {
	if len(msg) > 0xFFFF {
		msg = msg[:0xFFFF]
	}
	start := len(dst)
	var hdr [FrameHeaderSize]byte
	dst = append(dst, hdr[:]...)
	var p [6]byte
	binary.LittleEndian.PutUint32(p[0:], retryAfter)
	binary.LittleEndian.PutUint16(p[4:], uint16(len(msg)))
	dst = append(dst, p[:]...)
	dst = append(dst, msg...)
	return sealFrame(dst, start, FrameNack, 0)
}

// SplitDataPayload splits a data-frame payload into its tenant name and
// element bytes. The element region must divide elemSize exactly.
func SplitDataPayload(payload []byte, elemSize int) (tenant string, elems []byte, err error) {
	if len(payload) < 2 {
		return "", nil, fmt.Errorf("%w: data payload %d bytes", ErrFrame, len(payload))
	}
	tl := int(binary.LittleEndian.Uint16(payload))
	if len(payload) < 2+tl {
		return "", nil, fmt.Errorf("%w: tenant length %d beyond payload", ErrFrame, tl)
	}
	tenant = string(payload[2 : 2+tl])
	elems = payload[2+tl:]
	if len(elems)%elemSize != 0 {
		return "", nil, fmt.Errorf("%w: %d element bytes not a multiple of %d", ErrFrame, len(elems), elemSize)
	}
	return tenant, elems, nil
}

// DecodeFrameElems appends the elements encoded in elems (a data payload's
// element region) to dst and returns it. dst is grown once, to hold the
// whole frame, so decoding allocates at most once and, into a pre-grown
// dst, not at all — the binary ingest path decodes a frame in one codec
// call, not one parse per element.
func DecodeFrameElems[T any](codec Codec[T], elems []byte, dst []T) ([]T, error) {
	size := codec.Size()
	if len(elems)%size != 0 {
		return dst, fmt.Errorf("%w: %d element bytes not a multiple of %d", ErrFrame, len(elems), size)
	}
	if n := len(elems) / size; cap(dst)-len(dst) < n {
		// One make rather than slices.Grow, which allocates twice when
		// built with the race detector.
		dst = append(make([]T, 0, len(dst)+n), dst...)
	}
	return codec.DecodeElems(dst, elems), nil
}

// DecodeAckPayload decodes an ack-frame payload.
func DecodeAckPayload(payload []byte) (count uint32, n int64, err error) {
	if len(payload) != 12 {
		return 0, 0, fmt.Errorf("%w: ack payload %d bytes, want 12", ErrFrame, len(payload))
	}
	return binary.LittleEndian.Uint32(payload[0:]),
		int64(binary.LittleEndian.Uint64(payload[4:])), nil
}

// DecodeNackPayload decodes a nack-frame payload.
func DecodeNackPayload(payload []byte) (retryAfter uint32, msg string, err error) {
	if len(payload) < 6 {
		return 0, "", fmt.Errorf("%w: nack payload %d bytes", ErrFrame, len(payload))
	}
	ml := int(binary.LittleEndian.Uint16(payload[4:]))
	if len(payload) != 6+ml {
		return 0, "", fmt.Errorf("%w: nack message length %d, payload %d", ErrFrame, ml, len(payload))
	}
	return binary.LittleEndian.Uint32(payload[0:]), string(payload[6 : 6+ml]), nil
}
