package core

import (
	"bytes"
	"math/rand"
	"testing"

	"opaq/internal/runio"
)

// buildStreamSummaries cuts n sealed summaries out of one continuous
// stream, mimicking the engine's epoch ring (ragged sizes included).
func buildStreamSummaries(t *testing.T, n int, seed int64) []*Summary[int64] {
	t.Helper()
	cfg := Config{RunLen: 64, SampleSize: 8}
	sb, err := NewStreamBuilder[int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []*Summary[int64]
	for len(out) < n {
		for i, m := 0, 64*(1+rng.Intn(4)); i < m; i++ {
			if err := sb.Add(rng.Int63n(1 << 40)); err != nil {
				t.Fatal(err)
			}
		}
		if s := sb.Seal(); s.N() > 0 {
			out = append(out, s)
		}
	}
	return out
}

// TestMergeAllParallelMatchesSequential pins the contract: for every
// worker count the parallel merge tree yields a summary byte-identical
// (via the checksummed persisted form) to sequential MergeAll.
func TestMergeAllParallelMatchesSequential(t *testing.T) {
	for _, k := range []int{1, 2, 7, 8, 9, 33, 100} {
		sums := buildStreamSummaries(t, k, int64(k))
		want, err := MergeAll(sums)
		if err != nil {
			t.Fatal(err)
		}
		var wantBytes bytes.Buffer
		if err := SaveSummary(&wantBytes, want, runio.Int64Codec{}); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 3, 4, 16, 64} {
			got, err := MergeAllParallel(sums, workers)
			if err != nil {
				t.Fatalf("k=%d workers=%d: %v", k, workers, err)
			}
			var gotBytes bytes.Buffer
			if err := SaveSummary(&gotBytes, got, runio.Int64Codec{}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantBytes.Bytes(), gotBytes.Bytes()) {
				t.Fatalf("k=%d workers=%d: parallel merge differs from sequential", k, workers)
			}
		}
	}
}

// TestMergeAllParallelNeverAliasesInputs guards the recycling contract
// the engine relies on: the result's sample buffer must be distinct from
// every input's, even in degenerate shapes (single non-empty input,
// empties interleaved), so inputs can be recycled after the merge.
func TestMergeAllParallelNeverAliasesInputs(t *testing.T) {
	sums := buildStreamSummaries(t, 12, 5)
	empty := emptySummary[int64](sums[0].step)
	in := []*Summary[int64]{empty, sums[0], empty}
	in = append(in, sums[1:]...)
	out, err := MergeAllParallel(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range in {
		if len(s.samples) > 0 && len(out.samples) > 0 && &s.samples[0] == &out.samples[0] {
			t.Fatalf("output sample buffer aliases input %d", i)
		}
	}
}

// TestMergeAllParallelStepMismatch pins the error path: a mismatched
// step in any chunk surfaces as ErrIncompatible, same as MergeAll.
func TestMergeAllParallelStepMismatch(t *testing.T) {
	sums := buildStreamSummaries(t, 16, 3)
	other, err := NewStreamBuilder[int64](Config{RunLen: 64, SampleSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := other.Add(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sums = append(sums, other.Seal())
	if _, err := MergeAllParallel(sums, 4); err == nil {
		t.Fatal("mismatched step merged without error")
	}
}
