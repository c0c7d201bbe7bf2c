package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"opaq/internal/runio"
)

// TestSealPreservesRunComposition pins the property the epoch lifecycle is
// built on: sealing whole runs out of a StreamBuilder and merging the
// sealed pieces back with the final Summary is byte-identical to never
// sealing — the partial run stays buffered, so no run is ever split.
func TestSealPreservesRunComposition(t *testing.T) {
	cfg := Config{RunLen: 64, SampleSize: 8}
	rng := rand.New(rand.NewSource(9))
	xs := make([]int64, 64*7+37) // ragged tail on purpose
	for i := range xs {
		xs[i] = rng.Int63n(1 << 40)
	}

	// Reference: one unsealed builder over the whole sequence.
	ref, err := NewStreamBuilder[int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Summary()
	if err != nil {
		t.Fatal(err)
	}

	// Sealed: the same sequence with seals at awkward points (mid-run,
	// at a run boundary, twice in a row with nothing new).
	sb, err := NewStreamBuilder[int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pieces []*Summary[int64]
	seal := func() {
		if s := sb.Seal(); s.N() > 0 {
			pieces = append(pieces, s)
		}
	}
	for i, v := range xs {
		if err := sb.Add(v); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 10, 64, 129, 130, 300:
			seal()
		}
	}
	seal()
	tail, err := sb.Summary()
	if err != nil {
		t.Fatal(err)
	}
	pieces = append(pieces, tail)

	got, err := MergeAll(pieces)
	if err != nil {
		t.Fatal(err)
	}
	if d := summaryDiff(want, got); d != "" {
		t.Fatalf("sealed reassembly diverged: %s", d)
	}
	var a, b bytes.Buffer
	if err := SaveSummary(&a, want, runio.Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	if err := SaveSummary(&b, got, runio.Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("sealed reassembly is not byte-identical to the unsealed summary")
	}

	// After the seals, the builder keeps ingesting and its accounting
	// holds: N() counts only what it still owns.
	if sb.N() != int64(len(xs)%64) {
		t.Fatalf("post-seal N = %d, want the buffered tail %d", sb.N(), len(xs)%64)
	}
	if sb.Buffered() != len(xs)%64 {
		t.Fatalf("Buffered = %d, want %d", sb.Buffered(), len(xs)%64)
	}
}

// TestSealEmpty pins Seal on a builder with no completed run: canonical
// empty summary, builder untouched.
func TestSealEmpty(t *testing.T) {
	sb, err := NewStreamBuilder[int64](Config{RunLen: 8, SampleSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := sb.Seal(); s.N() != 0 {
		t.Fatalf("seal of fresh builder N = %d", s.N())
	}
	for _, v := range []int64{5, 3} {
		if err := sb.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if s := sb.Seal(); s.N() != 0 {
		t.Fatalf("seal with only a partial run N = %d", s.N())
	}
	if sb.N() != 2 || sb.Buffered() != 2 {
		t.Fatalf("builder lost its buffer across an empty seal: N=%d buffered=%d", sb.N(), sb.Buffered())
	}
	sum, err := sb.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.N() != 2 || sum.Min() != 3 || sum.Max() != 5 {
		t.Fatalf("post-seal summary: n=%d min=%d max=%d", sum.N(), sum.Min(), sum.Max())
	}
}

// TestMergeAll checks MergeAll against the pairwise fold and its error
// cases.
func TestMergeAll(t *testing.T) {
	cfg := Config{RunLen: 32, SampleSize: 4}
	rng := rand.New(rand.NewSource(2))
	var sums []*Summary[int64]
	for k := 0; k < 5; k++ {
		sb, err := NewStreamBuilder[int64](cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100+k*37; i++ {
			if err := sb.Add(rng.Int63n(1 << 30)); err != nil {
				t.Fatal(err)
			}
		}
		s, err := sb.Summary()
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, s)
	}
	want := sums[0]
	var err error
	for _, s := range sums[1:] {
		if want, err = Merge(want, s); err != nil {
			t.Fatal(err)
		}
	}
	got, err := MergeAll(sums)
	if err != nil {
		t.Fatal(err)
	}
	if d := summaryDiff(want, got); d != "" {
		t.Fatalf("MergeAll != pairwise fold: %s", d)
	}

	// Nil and empty entries are skipped.
	withGaps := []*Summary[int64]{nil, emptySummary[int64](8), sums[0], nil, sums[1]}
	g2, err := MergeAll(withGaps)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Merge(sums[0], sums[1])
	if err != nil {
		t.Fatal(err)
	}
	if d := summaryDiff(w2, g2); d != "" {
		t.Fatalf("MergeAll with nil/empty gaps diverged from plain merge: %s", d)
	}

	// A leading empty summary of a different step must not dictate
	// compatibility — empties are skipped, including for the step check.
	g3, err := MergeAll([]*Summary[int64]{emptySummary[int64](3), sums[0], sums[1]})
	if err != nil {
		t.Fatalf("leading foreign-step empty broke MergeAll: %v", err)
	}
	if d := summaryDiff(w2, g3); d != "" {
		t.Fatalf("MergeAll with leading foreign-step empty diverged from plain merge: %s", d)
	}

	// All-empty yields the canonical empty summary; all-nil is an error;
	// mixed steps are rejected.
	if s, err := MergeAll([]*Summary[int64]{emptySummary[int64](8)}); err != nil || s.N() != 0 {
		t.Fatalf("all-empty MergeAll: %v, N=%d", err, s.N())
	}
	if _, err := MergeAll[int64](nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty MergeAll err = %v, want ErrConfig", err)
	}
	other, err := NewStreamBuilder[int64](Config{RunLen: 32, SampleSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Add(1); err != nil {
		t.Fatal(err)
	}
	so, err := other.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeAll([]*Summary[int64]{sums[0], so}); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("mixed-step MergeAll err = %v, want ErrIncompatible", err)
	}
}
