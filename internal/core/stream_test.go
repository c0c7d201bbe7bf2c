package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"opaq/internal/datagen"
	"opaq/internal/runio"
)

func TestStreamBuilderValidation(t *testing.T) {
	if _, err := NewStreamBuilder[int64](Config{RunLen: 10, SampleSize: 3}); err == nil {
		t.Fatal("invalid config should fail")
	}
}

func TestStreamBuilderEmpty(t *testing.T) {
	b, err := NewStreamBuilder[int64](Config{RunLen: 8, SampleSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 0 {
		t.Fatalf("N = %d", s.N())
	}
}

// TestEmptySummaryConsistency pins the zero-element contract: a
// StreamBuilder that never saw an element and a Build over an empty reader
// yield structurally identical summaries, and every rank-dependent query
// on either reports ErrEmpty rather than fabricating values.
func TestEmptySummaryConsistency(t *testing.T) {
	cfg := Config{RunLen: 8, SampleSize: 2}
	sb, err := NewStreamBuilder[int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := sb.Summary()
	if err != nil {
		t.Fatal(err)
	}
	built, err := BuildFromSlice[int64](nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := summaryDiff(streamed, built); d != "" {
		t.Fatalf("empty summaries diverge: %s", d)
	}
	for name, s := range map[string]*Summary[int64]{"stream": streamed, "build": built} {
		if _, err := s.Bounds(0.5); !errors.Is(err, ErrEmpty) {
			t.Errorf("%s: Bounds on empty = %v, want ErrEmpty", name, err)
		}
		if _, err := s.BoundsAtRank(1); !errors.Is(err, ErrEmpty) {
			t.Errorf("%s: BoundsAtRank on empty = %v, want ErrEmpty", name, err)
		}
		if _, err := s.Quantiles(10); !errors.Is(err, ErrEmpty) {
			t.Errorf("%s: Quantiles on empty = %v, want ErrEmpty", name, err)
		}
		if lo, hi := s.RankBounds(42); lo != 0 || hi != 0 {
			t.Errorf("%s: RankBounds on empty = [%d, %d], want zeros", name, lo, hi)
		}
		if s.ErrorBound() != 0 {
			t.Errorf("%s: ErrorBound on empty = %d", name, s.ErrorBound())
		}
		if s.Min() != 0 || s.Max() != 0 {
			t.Errorf("%s: empty extrema = [%d, %d], want zero values", name, s.Min(), s.Max())
		}
	}
	// The streaming builder stays usable after an empty snapshot, and its
	// next snapshot matches a batch build of the same data.
	if err := sb.AddBatch([]int64{3, 1, 2, 5, 4, 9, 8, 7}); err != nil {
		t.Fatal(err)
	}
	after, err := sb.Summary()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := BuildFromSlice([]int64{3, 1, 2, 5, 4, 9, 8, 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := summaryDiff(after, batch); d != "" {
		t.Errorf("summaries diverge after ingesting into a previously-empty builder: %s", d)
	}
}

func TestStreamBuilderMatchesBatchBuild(t *testing.T) {
	cfg := Config{RunLen: 1000, SampleSize: 100}
	xs := datagen.Generate(datagen.NewUniform(7, 1<<40), 25_000)
	sb, err := NewStreamBuilder[int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	streamed, err := sb.Summary()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := BuildFromSlice(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.N() != batch.N() || streamed.Runs() != batch.Runs() ||
		streamed.SampleCount() != batch.SampleCount() {
		t.Fatalf("stream N/runs/samples = %d/%d/%d, batch %d/%d/%d",
			streamed.N(), streamed.Runs(), streamed.SampleCount(),
			batch.N(), batch.Runs(), batch.SampleCount())
	}
	for i, v := range streamed.Samples() {
		if v != batch.Samples()[i] {
			t.Fatalf("sample %d: %d vs %d", i, v, batch.Samples()[i])
		}
	}
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		a, _ := streamed.Bounds(phi)
		c, _ := batch.Bounds(phi)
		if a.Lower != c.Lower || a.Upper != c.Upper {
			t.Errorf("phi=%g: stream [%v,%v] vs batch [%v,%v]", phi, a.Lower, a.Upper, c.Lower, c.Upper)
		}
	}
}

func TestStreamBuilderUsableAfterSummary(t *testing.T) {
	cfg := Config{RunLen: 100, SampleSize: 10}
	sb, err := NewStreamBuilder[int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 150; i++ { // one full run + half a run buffered
		if err := sb.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	s1, err := sb.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s1.N() != 150 {
		t.Fatalf("first summary N = %d", s1.N())
	}
	// Keep ingesting: the partial run must not be double counted.
	for i := int64(150); i < 300; i++ {
		if err := sb.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := sb.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s2.N() != 300 {
		t.Fatalf("second summary N = %d", s2.N())
	}
	b, err := s2.Bounds(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Lower > 150 || b.Upper < 149 {
		t.Errorf("median of 0..299 outside [%d,%d]", b.Lower, b.Upper)
	}

	// Summary selects the partial run where it is buffered, so it reorders
	// keys that ingestion keeps adding to. Each Summary, taken while a
	// shuffled partial run holds at least one sub-run and again after
	// several more runs, must save the bytes of BuildFromSlice over the
	// keys added so far.
	cfg = Config{RunLen: 256, SampleSize: 32}
	r := rand.New(rand.NewSource(17))
	n := 6*cfg.RunLen + 77
	ints, floats, strs := make([]int64, n), make([]float64, n), make([]string, n)
	for i := range n {
		ints[i] = r.Int63n(1000) - 500
		floats[i] = signedZeroFloat(r)
		strs[i] = fmt.Sprintf("k%04d", r.Intn(3000))
	}
	t.Run("int64", func(t *testing.T) { checkSummaryMidRun(t, cfg, ints, runio.Int64Codec{}) })
	t.Run("float64", func(t *testing.T) { checkSummaryMidRun(t, cfg, floats, runio.Float64Codec{}) })
	t.Run("string", func(t *testing.T) { checkSummaryMidRun(t, cfg, strs, nil) })
}

// checkSummaryMidRun adds keys to a StreamBuilder in batches that end
// inside a run, at least one sub-run into it, and several runs apart,
// the last at the last key, taking Summary twice after each batch. Every
// summary must match BuildFromSlice over the keys added so far, part by
// part and bit for bit, and save the same bytes when codec is not nil.
func checkSummaryMidRun[T cmp.Ordered](t *testing.T, cfg Config, keys []T, codec runio.Codec[T]) {
	sb, err := NewStreamBuilder[T](cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := cfg.RunLen
	added := 0
	for _, cut := range []int{m + 100, 3*m + cfg.Step(), 5*m + m - 1, len(keys)} {
		if err := sb.AddBatch(keys[added:cut]); err != nil {
			t.Fatal(err)
		}
		added = cut
		built, err := BuildFromSlice(keys[:cut], cfg)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			got, err := sb.Summary()
			if err != nil {
				t.Fatal(err)
			}
			if d := summaryDiff(got, built); d != "" {
				t.Fatalf("Summary after %d keys differs from BuildFromSlice: %s", cut, d)
			}
			if codec == nil {
				continue
			}
			var a, b bytes.Buffer
			if err := SaveSummary(&a, got, codec); err != nil {
				t.Fatal(err)
			}
			if err := SaveSummary(&b, built, codec); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("Summary after %d keys saves different bytes than BuildFromSlice", cut)
			}
		}
	}
}

// TestStreamBuilderNamedFloatZeros: keys of a named float type are
// radix-selected by bit pattern, as float64 keys are, so a Summary taken
// mid-run, which selects the partial run where it is buffered, leaves no
// trace in what the builder later saves. Over many seeds, a third of the
// keys −0 and a third +0, one Summary 100–199 keys into the second run
// and the final Summary must each match BuildFromSlice over the keys so
// far, part by part and bit for bit. A multi-selected named float lets the
// reordering pick which zero lands at a sample rank, and fails this.
func TestStreamBuilderNamedFloatZeros(t *testing.T) {
	type celsius float64
	cfg := Config{RunLen: 256, SampleSize: 32}
	for seed := range int64(64) {
		r := rand.New(rand.NewSource(seed))
		keys := make([]celsius, 3*cfg.RunLen+50)
		for i := range keys {
			switch i % 3 {
			case 0:
				keys[i] = celsius(math.Copysign(0, -1))
			case 1:
				keys[i] = 0
			default:
				keys[i] = celsius(r.NormFloat64())
			}
		}
		r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		sb, err := NewStreamBuilder[celsius](cfg)
		if err != nil {
			t.Fatal(err)
		}
		cut := cfg.RunLen + 100 + r.Intn(100)
		for _, upto := range []int{cut, len(keys)} {
			if err := sb.AddBatch(keys[sb.N():upto]); err != nil {
				t.Fatal(err)
			}
			got, err := sb.Summary()
			if err != nil {
				t.Fatal(err)
			}
			built, err := BuildFromSlice(keys[:upto], cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := summaryDiff(got, built); d != "" {
				t.Fatalf("seed %d: Summary after %d keys (cut at %d) differs from BuildFromSlice: %s", seed, upto, cut, d)
			}
		}
	}
}

// Property: streaming and batch construction agree for arbitrary lengths,
// including ragged tails.
func TestQuickStreamEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, nRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%5000 + 1
		cfg := Config{RunLen: 128, SampleSize: 16}
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = r.Int63n(1000)
		}
		sb, err := NewStreamBuilder[int64](cfg)
		if err != nil {
			return false
		}
		if err := sb.AddBatch(xs); err != nil {
			return false
		}
		streamed, err := sb.Summary()
		if err != nil {
			return false
		}
		batch, err := BuildFromSlice(xs, cfg)
		if err != nil {
			return false
		}
		if streamed.SampleCount() != batch.SampleCount() || streamed.N() != batch.N() {
			return false
		}
		for i, v := range streamed.Samples() {
			if v != batch.Samples()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamBuilderSignedZeroExtrema pins the extrema of runs whose
// smallest or largest keys are zeros of both signs, in either order: a
// StreamBuilder fed through Add and through AddBatch must save the bytes
// Build saves over the same keys, in whole runs and ragged tails, tails
// shorter than a sub-run included, in float64 and float32. Min and Max
// must carry the sign the builtin min and max give over all the keys:
// −0 for a minimum, +0 for a maximum.
func TestStreamBuilderSignedZeroExtrema(t *testing.T) {
	neg := math.Copysign(0, -1)
	keySets := [][]float64{
		{0, neg, 1, 2},
		{0, neg, 1, 2, 0, neg},
		{neg, 0, -1, -2},
		{neg, 0, -1, -2, neg, 0},
		{3, 0, 1, neg, 2, 0, neg, 5, 0, neg, 4},
		{-3, neg, -1, 0, -2, neg, 0, -5, neg, 0, -4},
	}
	for _, cfg := range []Config{{RunLen: 4, SampleSize: 2}, {RunLen: 8, SampleSize: 2}} {
		for _, keys := range keySets {
			f32 := make([]float32, len(keys))
			for i, k := range keys {
				f32[i] = float32(k)
			}
			name := fmt.Sprintf("m=%d/%v", cfg.RunLen, keys)
			t.Run(name+"/float64", func(t *testing.T) { checkSignedZeroExtrema(t, keys, runio.Float64Codec{}, cfg) })
			t.Run(name+"/float32", func(t *testing.T) { checkSignedZeroExtrema(t, f32, runio.Float32Codec{}, cfg) })
		}
	}
}

func checkSignedZeroExtrema[T float32 | float64](t *testing.T, keys []T, codec runio.Codec[T], cfg Config) {
	save := func(how string, s *Summary[T]) []byte {
		t.Helper()
		if lo, hi := slices.Min(keys), slices.Max(keys); !sameBits(s.Min(), lo) || !sameBits(s.Max(), hi) {
			t.Errorf("%s: extrema [%v, %v], want [%v, %v]", how, s.Min(), s.Max(), lo, hi)
		}
		var buf bytes.Buffer
		if err := SaveSummary(&buf, s, codec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	built, err := BuildFromSlice(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := save("BuildFromSlice", built)
	for _, how := range []string{"Add", "AddBatch"} {
		sb, err := NewStreamBuilder[T](cfg)
		if err != nil {
			t.Fatal(err)
		}
		if how == "Add" {
			for _, k := range keys {
				err = errors.Join(err, sb.Add(k))
			}
		} else {
			err = sb.AddBatch(keys)
		}
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := sb.Summary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(save(how, streamed), want) {
			t.Errorf("%s: saves different bytes than BuildFromSlice", how)
		}
	}
}
