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
// The seed corpus is built from a real checkpoint (the restore path the
// engine's Restore/RestoreFile and the registry's restore-on-boot all
// funnel through) plus targeted corruptions of it: truncations, header
// bit-flips, an inflated sample count and a damaged checksum.
func FuzzLoadSummary(f *testing.F) {
	codec := runio.Int64Codec{}
	rng := rand.New(rand.NewSource(1997))
	xs := make([]int64, 3000)
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
	good := buf.Bytes()

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
