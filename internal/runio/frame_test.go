package runio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"
	"testing"
)

// readFrame reads one whole frame (header + payload) from r.
func readFrame(t *testing.T, r io.Reader, maxPayload uint32) (FrameHeader, []byte) {
	t.Helper()
	h, err := ReadFrameHeader(r, maxPayload)
	if err != nil {
		t.Fatalf("ReadFrameHeader: %v", err)
	}
	p, err := ReadFramePayload(r, h, nil)
	if err != nil {
		t.Fatalf("ReadFramePayload: %v", err)
	}
	return h, p
}

func TestDataFrameRoundTrip(t *testing.T) {
	codec := Int64Codec{}
	xs := []int64{-5, 0, 7, 1 << 40, -(1 << 62)}
	frame, err := AppendDataFrame(nil, codec, "tenant-a", xs)
	if err != nil {
		t.Fatalf("AppendDataFrame: %v", err)
	}
	if len(frame) != FrameHeaderSize+2+len("tenant-a")+8*len(xs)+4 {
		t.Fatalf("frame length %d", len(frame))
	}

	h, p := readFrame(t, bytes.NewReader(frame), 0)
	if h.Type != FrameData || h.Kind != KindInt64 {
		t.Fatalf("header %+v", h)
	}
	tenant, elems, err := SplitDataPayload(p, codec.Size())
	if err != nil {
		t.Fatalf("SplitDataPayload: %v", err)
	}
	if tenant != "tenant-a" {
		t.Fatalf("tenant %q", tenant)
	}
	got, err := DecodeFrameElems(codec, elems, nil)
	if err != nil {
		t.Fatalf("DecodeFrameElems: %v", err)
	}
	if len(got) != len(xs) {
		t.Fatalf("decoded %d elements, want %d", len(got), len(xs))
	}
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("element %d: %d != %d", i, got[i], xs[i])
		}
	}
}

func TestDataFrameEmptyTenantAndBatch(t *testing.T) {
	frame, err := AppendDataFrame(nil, Float64Codec{}, "", nil)
	if err != nil {
		t.Fatalf("AppendDataFrame: %v", err)
	}
	h, p := readFrame(t, bytes.NewReader(frame), 0)
	if h.Kind != KindFloat64 {
		t.Fatalf("kind %d", h.Kind)
	}
	tenant, elems, err := SplitDataPayload(p, 8)
	if err != nil || tenant != "" || len(elems) != 0 {
		t.Fatalf("tenant %q elems %d err %v", tenant, len(elems), err)
	}
}

func TestAckNackRoundTrip(t *testing.T) {
	frame := AppendAckFrame(nil, 8192, 1<<50)
	frame = AppendNackFrame(frame, 3, "backlogged")

	r := bytes.NewReader(frame)
	h, p := readFrame(t, r, 0)
	if h.Type != FrameAck {
		t.Fatalf("type %d", h.Type)
	}
	count, n, err := DecodeAckPayload(p)
	if err != nil || count != 8192 || n != 1<<50 {
		t.Fatalf("ack %d %d %v", count, n, err)
	}

	h, p = readFrame(t, r, 0)
	if h.Type != FrameNack {
		t.Fatalf("type %d", h.Type)
	}
	retry, msg, err := DecodeNackPayload(p)
	if err != nil || retry != 3 || msg != "backlogged" {
		t.Fatalf("nack %d %q %v", retry, msg, err)
	}

	if _, err := ReadFrameHeader(r, 0); err != io.EOF {
		t.Fatalf("trailing read: %v, want io.EOF", err)
	}
}

func TestAppendDataFrameReusesBuffer(t *testing.T) {
	codec := Int64Codec{}
	xs := []int64{1, 2, 3}
	buf, err := AppendDataFrame(nil, codec, "t", xs)
	if err != nil {
		t.Fatal(err)
	}
	grown := append(buf, make([]byte, 256)...)[:0]
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		grown, err = AppendDataFrame(grown[:0], codec, "t", xs)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendDataFrame into pre-grown buffer: %.1f allocs/op, want 0", allocs)
	}
}

func TestDecodeFrameElemsZeroAlloc(t *testing.T) {
	codec := Int64Codec{}
	xs := make([]int64, 512)
	for i := range xs {
		xs[i] = int64(i * 3)
	}
	frame, err := AppendDataFrame(nil, codec, "", xs)
	if err != nil {
		t.Fatal(err)
	}
	_, elems, err := SplitDataPayload(frame[FrameHeaderSize:len(frame)-4], codec.Size())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int64, 0, len(xs))
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = DecodeFrameElems(codec, elems, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeFrameElems into pre-grown dst: %.1f allocs/op, want 0", allocs)
	}
}

// TestDecodeFrameElemsGrowsOnce decodes a 65,536-key frame into a nil dst:
// the slice is grown once, to the frame's element count, not append by
// append.
func TestDecodeFrameElemsGrowsOnce(t *testing.T) {
	codec := Int64Codec{}
	xs := make([]int64, 1<<16)
	for i := range xs {
		xs[i] = int64(i) * 5
	}
	frame, err := AppendDataFrame(nil, codec, "t", xs)
	if err != nil {
		t.Fatal(err)
	}
	_, elems, err := SplitDataPayload(frame[FrameHeaderSize:len(frame)-4], codec.Size())
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	allocs := testing.AllocsPerRun(20, func() {
		if got, err = DecodeFrameElems(codec, elems, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("DecodeFrameElems into nil dst: %.1f allocs/op, want 1", allocs)
	}
	if !slices.Equal(got, xs) {
		t.Fatalf("decoded %d keys, want the frame's %d", len(got), len(xs))
	}
}

func TestReadFrameHeaderTruncation(t *testing.T) {
	frame, err := AppendDataFrame(nil, Int64Codec{}, "t", []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// A clean EOF before any byte of a header is a frame-boundary close.
	if _, err := ReadFrameHeader(bytes.NewReader(nil), 0); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	// Every other truncation point must produce ErrFrame, from either the
	// header read or the payload read.
	for cut := 1; cut < len(frame); cut++ {
		r := bytes.NewReader(frame[:cut])
		h, err := ReadFrameHeader(r, 0)
		if err == nil {
			_, err = ReadFramePayload(r, h, nil)
		}
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("cut at %d: err %v, want ErrFrame", cut, err)
		}
	}
}

func TestReadFrameHeaderCorruption(t *testing.T) {
	base, err := AppendDataFrame(nil, Int64Codec{}, "t", []int64{9, 8, 7})
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func([]byte)) {
		frame := bytes.Clone(base)
		mutate(frame)
		r := bytes.NewReader(frame)
		h, err := ReadFrameHeader(r, 0)
		if err == nil {
			_, err = ReadFramePayload(r, h, nil)
		}
		if !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err %v, want ErrFrame", name, err)
		}
	}

	corrupt("bad magic", func(f []byte) { f[0] = 'X' })
	corrupt("bad version", func(f []byte) { f[4] = 99; fixHeaderCRC(f) })
	corrupt("bad type", func(f []byte) { f[5] = 42; fixHeaderCRC(f) })
	// Types 4–6 were rank-to-rank transport frames (xfer, barrier, hello);
	// no sender emits them, so a reader must not accept them either.
	for _, typ := range []byte{4, 5, 6} {
		corrupt(fmt.Sprintf("retired type %d", typ), func(f []byte) { f[5] = typ; fixHeaderCRC(f) })
	}
	corrupt("flipped length bit", func(f []byte) { f[8] ^= 1 })
	corrupt("flipped header CRC", func(f []byte) { f[12] ^= 0x80 })
	corrupt("flipped payload byte", func(f []byte) { f[FrameHeaderSize] ^= 1 })
	corrupt("flipped payload CRC", func(f []byte) { f[len(f)-1] ^= 1 })
	// A shrunk-but-CRC-fixed length makes the payload checksum read from
	// inside the old payload: must fail the payload CRC.
	corrupt("shrunk length", func(f []byte) {
		binary.LittleEndian.PutUint32(f[8:], 8)
		fixHeaderCRC(f)
	})
}

// fixHeaderCRC recomputes the header checksum after a deliberate header
// mutation, so the test exercises the post-CRC validation layers.
func fixHeaderCRC(f []byte) {
	binary.LittleEndian.PutUint32(f[12:], crc32.Checksum(f[:12], castagnoli))
}

func TestReadFrameHeaderOversized(t *testing.T) {
	var hdr [FrameHeaderSize]byte
	putFrameHeader(hdr[:], FrameHeader{Type: FrameData, Kind: KindInt64, Len: DefaultMaxFramePayload + 1})
	_, err := ReadFrameHeader(bytes.NewReader(hdr[:]), 0)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err %v, want ErrFrameTooLarge", err)
	}
	// And with an explicit tighter bound.
	putFrameHeader(hdr[:], FrameHeader{Type: FrameData, Kind: KindInt64, Len: 1024})
	if _, err := ReadFrameHeader(bytes.NewReader(hdr[:]), 512); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err %v, want ErrFrameTooLarge", err)
	}
	// At exactly the bound the header itself must pass (the payload is
	// absent here; only its read would fail).
	if _, err := ReadFrameHeader(bytes.NewReader(hdr[:]), 1024); err != nil {
		t.Fatalf("in-bound header rejected: %v", err)
	}
}

func TestSplitDataPayloadMalformed(t *testing.T) {
	if _, _, err := SplitDataPayload([]byte{1}, 8); !errors.Is(err, ErrFrame) {
		t.Fatalf("1-byte payload: %v", err)
	}
	// Tenant length pointing past the payload.
	p := []byte{0xFF, 0x00, 'a', 'b'}
	if _, _, err := SplitDataPayload(p, 8); !errors.Is(err, ErrFrame) {
		t.Fatalf("overlong tenant: %v", err)
	}
	// Element bytes not a multiple of the element size.
	p = []byte{1, 0, 't', 1, 2, 3}
	if _, _, err := SplitDataPayload(p, 8); !errors.Is(err, ErrFrame) {
		t.Fatalf("ragged elements: %v", err)
	}
}

func TestAppendDataFrameTenantTooLong(t *testing.T) {
	if _, err := AppendDataFrame(nil, Int64Codec{}, strings.Repeat("x", 1<<16), []int64{1}); !errors.Is(err, ErrFrame) {
		t.Fatalf("err %v, want ErrFrame", err)
	}
}

func TestReadFramePayloadReusesBuffer(t *testing.T) {
	frame, err := AppendDataFrame(nil, Int64Codec{}, "", []int64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 1024)
	r := bytes.NewReader(frame)
	h, err := ReadFrameHeader(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ReadFramePayload(r, h, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &p[0] != &buf[:1][0] {
		t.Fatal("payload not read into the provided buffer")
	}
}

// FuzzFrame feeds arbitrary bytes through the frame reader: it must either
// yield a structurally valid frame or fail with ErrFrame/ErrFrameTooLarge,
// and must never allocate past the size bound regardless of the declared
// length (the LoadSummary discipline).
func FuzzFrame(f *testing.F) {
	seed, _ := AppendDataFrame(nil, Int64Codec{}, "t0", []int64{3, 1, 4, 1, 5})
	f.Add(seed)
	f.Add(AppendAckFrame(nil, 7, 42))
	f.Add(AppendNackFrame(nil, 2, "shed"))
	f.Add(AppendRawFrame(nil, 4, KindInt64, nil)) // retired xfer type
	f.Add([]byte(frameMagic))
	f.Add([]byte{})

	const bound = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			h, err := ReadFrameHeader(r, bound)
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrFrame) && !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("ReadFrameHeader: unexpected error %v", err)
				}
				return
			}
			if h.Len > bound {
				t.Fatalf("header passed with Len %d over bound", h.Len)
			}
			p, err := ReadFramePayload(r, h, nil)
			if err != nil {
				if !errors.Is(err, ErrFrame) {
					t.Fatalf("ReadFramePayload: unexpected error %v", err)
				}
				return
			}
			switch h.Type {
			case FrameData:
				tenant, elems, err := SplitDataPayload(p, 8)
				if err == nil {
					if len(tenant) > len(p) {
						t.Fatal("tenant longer than payload")
					}
					if _, err := DecodeFrameElems(Int64Codec{}, elems, nil); err != nil {
						t.Fatalf("split accepted but decode failed: %v", err)
					}
				} else if !errors.Is(err, ErrFrame) {
					t.Fatalf("SplitDataPayload: unexpected error %v", err)
				}
			case FrameAck:
				if _, _, err := DecodeAckPayload(p); err != nil && !errors.Is(err, ErrFrame) {
					t.Fatalf("DecodeAckPayload: unexpected error %v", err)
				}
			case FrameNack:
				if _, _, err := DecodeNackPayload(p); err != nil && !errors.Is(err, ErrFrame) {
					t.Fatalf("DecodeNackPayload: unexpected error %v", err)
				}
			}
		}
	})
}
