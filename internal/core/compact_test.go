package core

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"opaq/internal/runio"
)

func TestSizeTier(t *testing.T) {
	cases := []struct {
		n    int64
		tier int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1 << 40, 40},
	}
	for _, c := range cases {
		if got := SizeTier(c.n); got != c.tier {
			t.Errorf("SizeTier(%d) = %d, want %d", c.n, got, c.tier)
		}
	}
}

// planBuddies plans over plain element counts: identity size, sum fold,
// no gate.
func planBuddies(ns []int64) [][2]int {
	return PlanBuddiesBy(ns,
		func(n int64) int64 { return n },
		func(a, b int64) int64 { return a + b },
		nil)
}

// compactSummaries plans with planBuddies over the summaries' element
// counts and executes the plan as the engine does: a span of one summary
// passes through by reference, and each wider span is merged with
// MergeAll.
func compactSummaries(sums []*Summary[int64]) ([]*Summary[int64], [][2]int, error) {
	ns := make([]int64, len(sums))
	for i, s := range sums {
		ns[i] = s.N()
	}
	spans := planBuddies(ns)
	out := make([]*Summary[int64], len(spans))
	for i, sp := range spans {
		if sp[1]-sp[0] == 1 {
			out[i] = sums[sp[0]]
			continue
		}
		m, err := MergeAll(sums[sp[0]:sp[1]])
		if err != nil {
			return nil, nil, err
		}
		out[i] = m
	}
	return out, spans, nil
}

// foldPlan applies a plan to counts, returning the compacted counts.
func foldPlan(ns []int64, spans [][2]int) []int64 {
	out := make([]int64, len(spans))
	for i, sp := range spans {
		for _, n := range ns[sp[0]:sp[1]] {
			out[i] += n
		}
	}
	return out
}

// checkPlanShape verifies the structural plan invariants: spans are
// ordered, contiguous and cover all of ns, and the folded counts' tiers
// strictly decrease oldest→newest (the fixpoint that bounds the depth).
func checkPlanShape(t *testing.T, ns []int64, spans [][2]int) []int64 {
	t.Helper()
	next := 0
	for _, sp := range spans {
		if sp[0] != next || sp[1] <= sp[0] {
			t.Fatalf("plan %v not contiguous over %d entries", spans, len(ns))
		}
		next = sp[1]
	}
	if next != len(ns) {
		t.Fatalf("plan %v covers %d of %d entries", spans, next, len(ns))
	}
	folded := foldPlan(ns, spans)
	for i := 0; i+1 < len(folded); i++ {
		if SizeTier(folded[i]) <= SizeTier(folded[i+1]) {
			t.Fatalf("plan not at fixpoint: folded counts %v have non-decreasing tiers at %d", folded, i)
		}
	}
	return folded
}

// TestPlanBuddiesCounter drives the binary-counter dynamic: appending S
// equal-size seals one at a time, re-planning after each, holds the
// compacted set at ≤ log₂(S)+1 entries throughout.
func TestPlanBuddiesCounter(t *testing.T) {
	const seal = int64(1 << 10)
	var counts []int64
	for s := 1; s <= 1000; s++ {
		counts = append(counts, seal)
		spans := planBuddies(counts)
		counts = checkPlanShape(t, counts, spans)
		if limit := bits.Len(uint(s)) + 1; len(counts) > limit {
			t.Fatalf("after %d seals: %d entries exceed log bound %d (%v)", s, len(counts), limit, counts)
		}
	}
}

// TestPlanBuddiesRagged checks the logarithmic depth bound under
// adversarially ragged seal sizes: at the fixpoint tiers strictly
// decrease, so the depth never exceeds log₂(ΣN)+1 occupied tiers.
func TestPlanBuddiesRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var counts []int64
	var total int64
	for s := 0; s < 500; s++ {
		n := int64(1 + rng.Intn(1<<12))
		total += n
		counts = append(counts, n)
		spans := planBuddies(counts)
		counts = checkPlanShape(t, counts, spans)
		if limit := bits.Len64(uint64(total)) + 1; len(counts) > limit {
			t.Fatalf("after %d ragged seals (ΣN=%d): %d entries exceed log bound %d", s+1, total, len(counts), limit)
		}
	}
}

func TestPlanBuddiesEmpty(t *testing.T) {
	if got := planBuddies(nil); len(got) != 0 {
		t.Fatalf("planBuddies(nil) = %v, want empty", got)
	}
	if got := planBuddies([]int64{7}); len(got) != 1 || got[0] != [2]int{0, 1} {
		t.Fatalf("planBuddies([7]) = %v, want [[0 1]]", got)
	}
}

// buildChunks splits xs into count contiguous chunks (roughly equal) and
// builds an independent summary over each — the shape of an epoch ring.
func buildChunks(t testing.TB, xs []int64, count int, cfg Config) []*Summary[int64] {
	t.Helper()
	if count < 1 {
		count = 1
	}
	sums := make([]*Summary[int64], 0, count)
	for i := 0; i < count; i++ {
		lo, hi := i*len(xs)/count, (i+1)*len(xs)/count
		s, err := BuildFromSlice(xs[lo:hi], cfg)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		sums = append(sums, s)
	}
	return sums
}

// summaryBytes serializes a summary; byte equality of the result is the
// strongest equivalence the persistence layer can observe.
func summaryBytes(t testing.TB, s *Summary[int64]) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveSummary(&buf, s, runio.Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompactSummariesEquivalence pins compaction's core contract: the
// merge of the compacted set is byte-identical to the merge of the
// original set, and the returned spans mirror the plan.
func TestCompactSummariesEquivalence(t *testing.T) {
	cfg := Config{RunLen: 64, SampleSize: 8}
	rng := rand.New(rand.NewSource(9))
	xs := make([]int64, 4000)
	for i := range xs {
		xs[i] = rng.Int63n(1 << 40)
	}
	sums := buildChunks(t, xs, 17, cfg)
	compacted, spans, err := compactSummaries(sums)
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted) >= len(sums) {
		t.Fatalf("compaction is vacuous: %d entries from %d", len(compacted), len(sums))
	}
	if len(compacted) != len(spans) {
		t.Fatalf("%d summaries but %d spans", len(compacted), len(spans))
	}
	for i, sp := range spans {
		var want int64
		for _, s := range sums[sp[0]:sp[1]] {
			want += s.N()
		}
		if compacted[i].N() != want {
			t.Fatalf("span %v: N=%d, want %d", sp, compacted[i].N(), want)
		}
	}
	whole, err := MergeAll(sums)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeAll(compacted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(summaryBytes(t, whole), summaryBytes(t, merged)) {
		t.Fatal("compacted merge diverges from uncompacted merge")
	}
}

// TestMergeAllAssociativityQuick is the property-based satellite: any
// bracketing of the same run set — pairwise Merge folds in an arbitrary
// random order, MergeAll flat, or compaction followed by MergeAll —
// yields a byte-identical summary. testing/quick drives the dataset, the
// chunking and the bracketing.
func TestMergeAllAssociativityQuick(t *testing.T) {
	cfg := Config{RunLen: 32, SampleSize: 4}
	prop := func(raw []int16, chunksRaw uint8, bracketSeed int64) bool {
		xs := make([]int64, len(raw)+32) // ≥ one run even for tiny raw
		for i, v := range raw {
			xs[i] = int64(v)
		}
		for i := len(raw); i < len(xs); i++ {
			xs[i] = int64(i * 37 % 1009)
		}
		sums := buildChunks(t, xs, 2+int(chunksRaw%12), cfg)

		flat, err := MergeAll(sums)
		if err != nil {
			t.Fatalf("MergeAll: %v", err)
		}
		want := summaryBytes(t, flat)

		// Random bracketing: repeatedly Merge two entries at a random
		// adjacent boundary until one remains. Every binary merge tree
		// over the ordered set is reachable this way.
		rng := rand.New(rand.NewSource(bracketSeed))
		work := append([]*Summary[int64](nil), sums...)
		for len(work) > 1 {
			i := rng.Intn(len(work) - 1)
			m, err := Merge(work[i], work[i+1])
			if err != nil {
				t.Fatalf("Merge: %v", err)
			}
			work = append(work[:i], append([]*Summary[int64]{m}, work[i+2:]...)...)
		}
		if !bytes.Equal(want, summaryBytes(t, work[0])) {
			return false
		}

		// Compaction is just another bracketing.
		compacted, _, err := compactSummaries(sums)
		if err != nil {
			t.Fatalf("compactSummaries: %v", err)
		}
		viaCompact, err := MergeAll(compacted)
		if err != nil {
			t.Fatalf("MergeAll(compacted): %v", err)
		}
		return bytes.Equal(want, summaryBytes(t, viaCompact))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
