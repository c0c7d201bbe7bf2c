package core

import (
	"encoding/binary"
	"sort"
	"testing"
)

// Fuzz targets for the paper's guarantees. Under plain `go test` the seed
// corpus runs as regular tests; `go test -fuzz=FuzzBoundsContainment`
// explores further.

// FuzzBoundsContainment checks Lemmas 1–3 on arbitrary byte-derived
// datasets and configurations: the true quantile always lies inside
// [Lower, Upper] and the enclosure never exceeds the computed error bound.
// RankBounds and CountBounds must enclose the true rank and range count
// of its probe keys.
func FuzzBoundsContainment(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), uint8(1), uint16(500))
	f.Add([]byte{255, 0, 255, 0, 255, 0, 255, 0}, uint8(1), uint8(0), uint16(1))
	f.Add(make([]byte, 300), uint8(3), uint8(2), uint16(999))
	f.Fuzz(func(t *testing.T, raw []byte, sPow, stepPow uint8, phiRaw uint16) {
		if len(raw) < 8 {
			return
		}
		// Decode the dataset: one int64 per 2 bytes (sign-extended) so
		// duplicates are common.
		xs := make([]int64, 0, len(raw)/2)
		for i := 0; i+2 <= len(raw); i += 2 {
			xs = append(xs, int64(int16(binary.LittleEndian.Uint16(raw[i:]))))
		}
		s := 1 << (sPow % 5)
		step := 1 << (stepPow % 4)
		cfg := Config{RunLen: s * step, SampleSize: s}
		sum, err := BuildFromSlice(xs, cfg)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		phi := (float64(phiRaw%1000) + 1) / 1000
		b, err := sum.Bounds(phi)
		if err != nil {
			t.Fatalf("Bounds(%g): %v", phi, err)
		}
		sorted := append([]int64(nil), xs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		truth := sorted[b.Rank-1]
		if b.Lower > truth || truth > b.Upper {
			t.Fatalf("phi=%g: true %d outside [%d, %d]", phi, truth, b.Lower, b.Upper)
		}
		// Lemma 3 via the summary's own bound.
		lo := sort.Search(len(sorted), func(i int) bool { return sorted[i] > b.Lower })
		hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= b.Upper })
		if gap := int64(hi - lo); gap > 2*sum.ErrorBound() {
			t.Fatalf("phi=%g: enclosure population %d exceeds 2×bound %d", phi, gap, 2*sum.ErrorBound())
		}
		// Rank bounds must enclose the true rank for the probe keys, and
		// count bounds the true count of [a, b] for every ordered pair of
		// them, a > b included, within ErrorBound of their midpoint.
		probes := []int64{xs[0], truth, b.Lower, b.Upper}
		for _, x := range probes {
			rl, rh := sum.RankBounds(x)
			trueRank := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > x }))
			if trueRank < rl || trueRank > rh {
				t.Fatalf("RankBounds(%d) = [%d,%d], true %d", x, rl, rh, trueRank)
			}
		}
		for _, a := range probes {
			for _, z := range probes {
				cl, ch := sum.CountBounds(a, z)
				trueCount := int64(0)
				if a <= z {
					trueCount = int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > z }) -
						sort.Search(len(sorted), func(i int) bool { return sorted[i] >= a }))
				}
				if trueCount < cl || trueCount > ch {
					t.Fatalf("CountBounds(%d, %d) = [%d,%d], true %d", a, z, cl, ch, trueCount)
				}
				if ch-cl > 2*sum.ErrorBound() {
					t.Fatalf("CountBounds(%d, %d) = [%d,%d]: half width over ErrorBound %d", a, z, cl, ch, sum.ErrorBound())
				}
			}
		}
	})
}

// FuzzMergeEquivalence checks that splitting a dataset at an arbitrary
// run-aligned point and merging the two summaries yields the same bounds
// as one pass over the whole.
func FuzzMergeEquivalence(f *testing.F) {
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6}, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, cutRaw uint8) {
		if len(raw) < 16 {
			return
		}
		xs := make([]int64, 0, len(raw))
		for _, b := range raw {
			xs = append(xs, int64(b))
		}
		cfg := Config{RunLen: 8, SampleSize: 4}
		// Run-aligned cut.
		cut := (int(cutRaw) % (len(xs)/8 + 1)) * 8
		a, err := BuildFromSlice(xs[:cut], cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildFromSlice(xs[cut:], cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := BuildFromSlice(xs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.SampleCount() != whole.SampleCount() || m.N() != whole.N() {
			t.Fatalf("merged %d samples/%d elems, whole %d/%d",
				m.SampleCount(), m.N(), whole.SampleCount(), whole.N())
		}
		for i, v := range m.Samples() {
			if v != whole.Samples()[i] {
				t.Fatalf("sample %d: %d vs %d", i, v, whole.Samples()[i])
			}
		}
	})
}
