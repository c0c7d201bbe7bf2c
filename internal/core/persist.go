package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"opaq/internal/runio"
)

// Summary persistence. The paper's incremental story (Section 4) requires
// keeping the sorted samples between ingest sessions: "if the sorted
// samples are kept from the runs of the old data, one need only compute
// the sorted samples from the new runs and merge with the old sorted
// samples". SaveSummary / LoadSummary serialize a Summary to a compact
// binary format so a long-lived pipeline can checkpoint its quantile state.
//
// Format (little-endian):
//
//	offset size field
//	0      8    magic "OPAQSUM\x01"
//	8      2    codec kind
//	10     2    element size
//	12     4    reserved
//	16     8    step
//	24     8    runs
//	32     8    n
//	40     8    leftover
//	48     8    sample count
//	56     ...  min, max, then samples, each element-size bytes
//	end    4    CRC32-C of everything after the magic
const summaryMagic = "OPAQSUM\x01"

// ErrSummaryFormat reports a malformed summary stream.
var ErrSummaryFormat = errors.New("core: malformed summary stream")

// summaryHeader is the size of the fixed fields after the magic.
const summaryHeader = 48

// summaryChunk caps the buffer SaveSummary and LoadSummary move the
// samples through: the codec encodes or decodes one chunk per call, and
// the checksum is updated once per chunk.
const summaryChunk = 32 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SaveSummary writes s to w using codec for element encoding.
func SaveSummary[T cmp.Ordered](w io.Writer, s *Summary[T], codec runio.Codec[T]) error {
	size := codec.Size()
	fixed := len(summaryMagic) + summaryHeader + 2*size // up to the first sample
	// The buffer holds the whole stream, or a chunk of it for a large
	// summary; either way it has room for the fixed fields, one sample and
	// the checksum.
	buf := make([]byte, 0, min(fixed+len(s.samples)*size, max(summaryChunk, fixed+size))+4)
	buf = append(buf, summaryMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, codec.Kind())
	buf = binary.LittleEndian.AppendUint16(buf, uint16(size))
	buf = append(buf, 0, 0, 0, 0)
	for _, v := range []int64{s.step, s.runs, s.n, s.leftover, int64(len(s.samples))} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = codec.AppendElems(buf, []T{s.min, s.max})
	crc, from := uint32(0), len(summaryMagic) // the checksum skips the magic
	for samples := s.samples; ; {
		k := min(len(samples), (cap(buf)-4-len(buf))/size)
		buf = codec.AppendElems(buf, samples[:k])
		crc = crc32.Update(crc, castagnoli, buf[from:])
		if samples = samples[k:]; len(samples) == 0 {
			break
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("core: save summary: %w", err)
		}
		buf, from = buf[:0], 0
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("core: save summary: %w", err)
	}
	return nil
}

// LoadSummary reads a Summary previously written by SaveSummary and
// re-validates every structural invariant via NewSummary. It reads
// exactly the summary's bytes from r.
func LoadSummary[T cmp.Ordered](r io.Reader, codec runio.Codec[T]) (*Summary[T], error) {
	var hdr [len(summaryMagic) + summaryHeader]byte
	magic := hdr[:len(summaryMagic)]
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("%w: short magic: %v", ErrSummaryFormat, err)
	}
	if string(magic) != summaryMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSummaryFormat)
	}
	fields := hdr[len(summaryMagic):]
	if _, err := io.ReadFull(r, fields); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrSummaryFormat, err)
	}
	kind := binary.LittleEndian.Uint16(fields[0:])
	elemSize := binary.LittleEndian.Uint16(fields[2:])
	if kind != codec.Kind() {
		return nil, fmt.Errorf("%w: stream kind %d, codec kind %d", ErrSummaryFormat, kind, codec.Kind())
	}
	size := codec.Size()
	if int(elemSize) != size {
		return nil, fmt.Errorf("%w: stream element size %d, codec %d", ErrSummaryFormat, elemSize, size)
	}
	step := int64(binary.LittleEndian.Uint64(fields[8:]))
	runs := int64(binary.LittleEndian.Uint64(fields[16:]))
	n := int64(binary.LittleEndian.Uint64(fields[24:]))
	leftover := int64(binary.LittleEndian.Uint64(fields[32:]))
	count := binary.LittleEndian.Uint64(fields[40:])
	if count > 1<<40 {
		return nil, fmt.Errorf("%w: implausible sample count %d", ErrSummaryFormat, count)
	}
	crc := crc32.Update(0, castagnoli, fields)
	// The chunk is sized by the header's count but capped, so a corrupted
	// count cannot make it large.
	chunk := make([]byte, max(min(count, uint64(summaryChunk/size)), 2)*uint64(size))
	ext := chunk[:2*size]
	if got, err := io.ReadFull(r, ext); err != nil {
		what := "min"
		if got >= size {
			what = "max"
		}
		return nil, fmt.Errorf("%w: truncated %s: %v", ErrSummaryFormat, what, err)
	}
	crc = crc32.Update(crc, castagnoli, ext)
	extrema := codec.DecodeElems(make([]T, 0, 2), ext)
	// Grow the sample list as elements actually arrive instead of
	// trusting the header's count up front: a corrupted count (up to the
	// 2⁴⁰ plausibility cap) must fail at EOF with a small allocation, not
	// attempt a terabyte-sized make. The list doubles, up to the count,
	// when the next chunk does not fit, so it never holds room for more
	// than twice the samples read (or 64 Ki).
	samples := make([]T, 0, min(count, 1<<16))
	for left := count; left > 0; {
		k := min(left, uint64(len(chunk)/size))
		b := chunk[:k*uint64(size)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("%w: truncated samples: %v", ErrSummaryFormat, err)
		}
		crc = crc32.Update(crc, castagnoli, b)
		if uint64(cap(samples)-len(samples)) < k {
			samples = append(make([]T, 0, min(count, 2*uint64(cap(samples)))), samples...)
		}
		samples = codec.DecodeElems(samples, b)
		left -= k
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrSummaryFormat, err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != crc {
		return nil, fmt.Errorf("%w: checksum mismatch %08x != %08x", ErrSummaryFormat, got, crc)
	}
	sum, err := NewSummary(SummaryParts[T]{
		Samples: samples, Step: step, Runs: runs, N: n, Leftover: leftover,
		Min: extrema[0], Max: extrema[1],
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSummaryFormat, err)
	}
	return sum, nil
}
