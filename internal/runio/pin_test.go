package runio

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The run-file and frame byte formats are pinned by SHA-256 digests. The
// round-trip tests would pass a change to both ends of a format; these
// digests do not.

// pinKeys returns n int64 keys that touch every byte of the encoding:
// signs, small and large magnitudes.
func pinKeys(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(uint64(i)*0x9E3779B97F4A7C15)>>3 ^ int64(i)
	}
	return xs
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRunFileBytesPinned writes a run file that spans several of the
// writer's chunks (see writeChunk) in one WriteFile call, and the same
// keys one Append per key: both must produce the pinned bytes.
func TestRunFileBytesPinned(t *testing.T) {
	const n = 300_000
	const want = "7ec97991e4a7d0355442917ba1478a22ab954d1cc76d1ac0bbe508a2b0d3c1ee"
	if n*8 <= 2*writeChunk {
		t.Fatalf("%d keys span at most two chunks; the pin needs more", n)
	}
	xs := pinKeys(n)
	path := filepath.Join(t.TempDir(), "pin.run")
	if err := WriteFile(path, Int64Codec{}, xs); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(raw); got != want {
		t.Errorf("WriteFile bytes changed: sha256 %s, pinned %s", got, want)
	}
	w, err := NewWriter(path, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range xs {
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if got := digest(raw); got != want {
		t.Errorf("per-key Append bytes changed: sha256 %s, pinned %s", got, want)
	}
}

// TestDataFrameBytesPinned pins AppendDataFrame's bytes for an int64 and
// a float32 batch, the latter with signed zeros, infinities, a subnormal
// and a NaN.
func TestDataFrameBytesPinned(t *testing.T) {
	frame, err := AppendDataFrame(nil, Int64Codec{}, "pin", pinKeys(1000))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digest(frame), "78d0f2c73e2e6f466ff9f3d456c1658ed32740f7c8341c55b3822e55184f1425"; got != want {
		t.Errorf("int64 frame bytes changed: sha256 %s, pinned %s", got, want)
	}
	fs := []float32{float32(math.Inf(-1)), -1.5, float32(math.Copysign(0, -1)), 0, 1e-40, 3.25, float32(math.Inf(1)), float32(math.NaN())}
	if frame, err = AppendDataFrame(frame[:0], Float32Codec{}, "", fs); err != nil {
		t.Fatal(err)
	}
	if got, want := digest(frame), "f0172c48d2c86aadfbee5e11aa1d49f744efd38fe95f82cbe742118a38ac38bb"; got != want {
		t.Errorf("float32 frame bytes changed: sha256 %s, pinned %s", got, want)
	}
}

// BenchmarkWriteFile times WriteFile of 4 Mi int64 keys (32 MiB).
func BenchmarkWriteFile(b *testing.B) {
	xs := pinKeys(4 << 20)
	path := filepath.Join(b.TempDir(), "bench.run")
	b.ReportAllocs()
	b.SetBytes(int64(len(xs)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFile(path, Int64Codec{}, xs); err != nil {
			b.Fatal(err)
		}
	}
}
