package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"opaq/internal/runio"
)

// The checkpoint byte format is pinned by SHA-256 digests of SaveSummary
// output. A round-trip test alone would pass a change to both the encoder
// and the decoder; these digests do not. Each non-empty summary
// holds several chunks of samples (see summaryChunk), so the pins cover
// the seams between chunks, and the samples include signed zeros and
// infinities, so they pin the float encodings bit for bit.

// pinnedSummary builds a valid summary of n samples from sample(i), which
// must be non-decreasing in i, with fixed bookkeeping and the given
// extrema.
func pinnedSummary[T cmp.Ordered](t *testing.T, n int, sample func(i int) T, lo, hi T) *Summary[T] {
	t.Helper()
	samples := make([]T, n)
	for i := range samples {
		samples[i] = sample(i)
	}
	s, err := NewSummary(SummaryParts[T]{
		Samples: samples, Step: 64, Runs: int64(n / 16), N: int64(n)*64 + 5, Leftover: 5,
		Min: lo, Max: hi,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// signedRamp returns the i-th of n non-decreasing floats: negative thirds,
// then −0 and +0 at n/2 and n/2+1, then positive thirds.
func signedRamp(i, n int) float64 {
	switch d := i - n/2; {
	case d < 0:
		return float64(d) / 3
	case d == 0:
		return math.Copysign(0, -1)
	case d == 1:
		return 0
	default:
		return float64(d-1) / 3
	}
}

// checkPinned saves s, compares the bytes' digest with want, and checks
// that loading those bytes and saving again reproduces them exactly.
func checkPinned[T cmp.Ordered](t *testing.T, name string, s *Summary[T], codec runio.Codec[T], want string) {
	t.Helper()
	if n := s.SampleCount(); n > 0 && n*codec.Size() <= 2*summaryChunk {
		t.Fatalf("%s: %d samples span at most two chunks; the pin needs more", name, n)
	}
	var buf bytes.Buffer
	if err := SaveSummary(&buf, s, codec); err != nil {
		t.Fatalf("%s: save: %v", name, err)
	}
	saved := buf.Bytes()
	sum := sha256.Sum256(saved)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: SaveSummary bytes changed: sha256 %s, pinned %s", name, got, want)
	}
	loaded, err := LoadSummary[T](bytes.NewReader(saved), codec)
	if err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	var again bytes.Buffer
	if err := SaveSummary(&again, loaded, codec); err != nil {
		t.Fatalf("%s: re-save: %v", name, err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Errorf("%s: load then save did not reproduce the pinned bytes", name)
	}
}

func TestSummaryBytesPinned(t *testing.T) {
	const n64, n32 = 10_000, 20_000
	inf := math.Inf(1)
	checkPinned(t, "int64", pinnedSummary(t, n64, func(i int) int64 { return int64(i)*int64(i)*31 - 1<<40 }, -1<<62, 1<<62),
		runio.Int64Codec{}, "0bb2f1e377cfd3967f3d03bc75c8053ecaff5d8f79f2dce13a611093d64ba7fb")
	checkPinned(t, "float64", pinnedSummary(t, n64, func(i int) float64 { return signedRamp(i, n64) }, -inf, inf),
		runio.Float64Codec{}, "5172f10fce84e2f5b693fb5f12d910e89dc0b9a470126b577f55a226969b21ef")
	checkPinned(t, "float32", pinnedSummary(t, n32, func(i int) float32 { return float32(signedRamp(i, n32)) }, float32(-inf), float32(inf)),
		runio.Float32Codec{}, "fd57cc3126660c25b1a4da82bf8c1feed6988c6c1a749090285a80c5871bfb40")
	empty, err := NewSummary(SummaryParts[int64]{Step: 64})
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "empty", empty, runio.Int64Codec{}, "65cb460706a4361847f7816a3526c25cce750986477eceb112daa6e6194a7660")
}

// BenchmarkSaveSummary and BenchmarkLoadSummary time the checkpoint codec
// on a small summary and on a 524,288-sample one (4 MiB of int64 samples,
// what 32 Mi keys leave at m = 65,536 and s = 1,024).
func BenchmarkSaveSummary(b *testing.B) {
	for _, n := range []int{64, 1 << 19} {
		s := benchSummary(b, n)
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := SaveSummary(&buf, s, runio.Int64Codec{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLoadSummary(b *testing.B) {
	for _, n := range []int{64, 1 << 19} {
		var buf bytes.Buffer
		if err := SaveSummary(&buf, benchSummary(b, n), runio.Int64Codec{}); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				if _, err := LoadSummary[int64](bytes.NewReader(raw), runio.Int64Codec{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchSummary(b *testing.B, n int) *Summary[int64] {
	samples := make([]int64, n)
	for i := range samples {
		samples[i] = int64(i) * 977
	}
	s, err := NewSummary(SummaryParts[int64]{
		Samples: samples, Step: 64, Runs: int64(n/1024 + 1), N: int64(n) * 64,
		Min: -1, Max: int64(n) * 977,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}
