package core

import (
	"bytes"
	"math/rand"
	"testing"

	"opaq/internal/runio"
)

// FuzzLoadSummary feeds arbitrary — and, via the seed corpus, nearly
// valid — bytes to the checkpoint loader. The contract under corruption
// is: no panics and no unbounded allocations, only errors; and any stream
// the loader does accept must be a structurally valid summary that
// answers queries and round-trips through SaveSummary.
//
// The seed corpus is built from real checkpoints (the restore path the
// engine's Restore/RestoreFile and the registry's restore-on-boot all
// funnel through) plus targeted corruptions of them: truncations, header
// bit-flips, an inflated sample count and a damaged checksum. One
// checkpoint holds more than two chunks of samples (see summaryChunk) and
// is also cut in the middle of its second chunk and exactly at the end of
// its first and second, so the loader's chunk seams are explored.
func FuzzLoadSummary(f *testing.F) {
	codec := runio.Int64Codec{}
	checkpoint := func(keys int) []byte {
		rng := rand.New(rand.NewSource(1997))
		xs := make([]int64, keys)
		for i := range xs {
			xs[i] = rng.Int63n(1 << 48)
		}
		sum, err := BuildFromSlice(xs, Config{RunLen: 256, SampleSize: 32})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveSummary(&buf, sum, codec); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	good := checkpoint(3000)

	f.Add(good)
	f.Add(good[:len(good)/2]) // truncated mid-samples
	f.Add(good[:9])           // truncated mid-header
	f.Add([]byte{})
	f.Add([]byte("OPAQSUM\x01"))
	corrupt := func(off int, val byte) []byte {
		c := append([]byte(nil), good...)
		c[off] ^= val
		return c
	}
	f.Add(corrupt(8, 0xff))           // codec kind
	f.Add(corrupt(20, 0x80))          // step high byte
	f.Add(corrupt(52, 0x7f))          // sample count inflated
	f.Add(corrupt(len(good)-1, 0x01)) // checksum
	f.Add(corrupt(70, 0x40))          // a sample value (breaks sortedness or CRC)

	chunk := summaryChunk / codec.Size() * codec.Size()        // sample bytes per chunk
	seam := len(summaryMagic) + summaryHeader + 2*codec.Size() // where the samples start
	big := checkpoint(8 * (2*chunk/codec.Size() + 100))        // 8 keys per sample
	if len(big) < seam+2*chunk+4 {
		f.Fatalf("big seed is %d bytes, not more than two chunks of samples", len(big))
	}
	f.Add(big)
	f.Add(big[:seam+chunk+chunk/2]) // cut mid second chunk
	f.Add(big[:seam+chunk])         // cut at the first chunk boundary
	f.Add(big[:seam+2*chunk])       // cut at the second chunk boundary

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadSummary[int64](bytes.NewReader(data), codec)
		if err != nil {
			return // rejecting corruption is the expected outcome
		}
		// Accepted streams must be fully usable...
		if got.N() > 0 {
			b, err := got.Bounds(0.5)
			if err != nil {
				t.Fatalf("accepted summary cannot answer Bounds: %v", err)
			}
			if b.Lower > b.Upper {
				t.Fatalf("accepted summary has inverted bounds %v", b)
			}
			if lo, hi := got.RankBounds(got.Min()); lo > hi {
				t.Fatalf("accepted summary has inverted rank bounds [%d, %d]", lo, hi)
			}
		}
		// ...and survive a save → load round trip unchanged.
		var out bytes.Buffer
		if err := SaveSummary(&out, got, codec); err != nil {
			t.Fatalf("re-saving accepted summary: %v", err)
		}
		again, err := LoadSummary[int64](bytes.NewReader(out.Bytes()), codec)
		if err != nil {
			t.Fatalf("reloading re-saved summary: %v", err)
		}
		if again.N() != got.N() || again.SampleCount() != got.SampleCount() ||
			again.Step() != got.Step() || again.Runs() != got.Runs() {
			t.Fatalf("round trip drifted: %d/%d/%d/%d vs %d/%d/%d/%d",
				again.N(), again.SampleCount(), again.Step(), again.Runs(),
				got.N(), got.SampleCount(), got.Step(), got.Runs())
		}
	})
}
