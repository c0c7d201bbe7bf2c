package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestStreamBuilderHoldsRunOnlyWhilePartial pins the run-buffer loan: a
// builder holds no buffer until a run's first key arrives, gives it back
// when the run's flush empties it, and holds exactly one RunLen buffer
// while it buffers a partial run, across Summary and Seal.
func TestStreamBuilderHoldsRunOnlyWhilePartial(t *testing.T) {
	cfg := Config{RunLen: 64, SampleSize: 8}
	b, err := NewStreamBuilder[int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	holds := func(when string, want int) {
		t.Helper()
		switch {
		case want == 0 && b.run != nil:
			t.Fatalf("%s: holds a buffer of %d keys, want none", when, len(*b.run))
		case want > 0 && b.run == nil:
			t.Fatalf("%s: holds no buffer, want one of %d keys", when, want)
		case want > 0 && (len(*b.run) != want || cap(*b.run) != cfg.RunLen):
			t.Fatalf("%s: buffer len %d cap %d, want len %d cap %d",
				when, len(*b.run), cap(*b.run), want, cfg.RunLen)
		}
	}
	keys := make([]int64, 3*cfg.RunLen+5)
	for i := range keys {
		keys[i] = int64(i * 7 % 101)
	}
	holds("new", 0)
	if err := b.AddBatch(keys[:3*cfg.RunLen]); err != nil {
		t.Fatal(err)
	}
	holds("after three whole runs in one batch", 0)
	for _, v := range keys[:cfg.RunLen] {
		if err := b.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	holds("after a whole run of Adds", 0)
	if err := b.AddBatch(keys); err != nil {
		t.Fatal(err)
	}
	holds("after a ragged batch", 5)
	if _, err := b.Summary(); err != nil {
		t.Fatal(err)
	}
	if s := b.Seal(); s.N() != int64(7*cfg.RunLen) {
		t.Fatalf("sealed N = %d, want %d", s.N(), 7*cfg.RunLen)
	}
	holds("after Summary and Seal", 5)
	if err := b.AddBatch(keys[:cfg.RunLen-5]); err != nil {
		t.Fatal(err)
	}
	holds("after the partial run completes", 0)
	if b.N() != int64(cfg.RunLen) || b.Buffered() != 0 {
		t.Fatalf("N %d, Buffered %d after the run that completed past the seal, want %d and 0",
			b.N(), b.Buffered(), cfg.RunLen)
	}
}

// TestStreamBuilderPooledRunsNeverCross drives builders that share run
// pools — two RunLens, several int64 and float64 builders each, and one
// string builder — from concurrent goroutines that interleave Add, ragged
// AddBatch, Summary and Seal, so partial runs and sampling scratch pass
// through the pools between builders. Every summary must match the one a
// serial twin builds over the same schedule (samples bit for bit, N,
// extrema and ErrorBound), the sealed summaries and the final Summary()
// together must match BuildFromSlice over all the keys, and a batch
// holding a NaN must leave N() unchanged.
func TestStreamBuilderPooledRunsNeverCross(t *testing.T) {
	var cases []func() func(*testing.T)
	seed := int64(1)
	for _, cfg := range []Config{{RunLen: 256, SampleSize: 32}, {RunLen: 384, SampleSize: 48}} {
		for range 3 {
			seed++
			cases = append(cases, pooledRunsCase(cfg, seed, func(r *rand.Rand) int64 { return r.Int63n(2000) - 1000 }))
			seed++
			cases = append(cases, pooledRunsCase(cfg, seed, signedZeroFloat))
		}
	}
	seed++
	cases = append(cases, pooledRunsCase(Config{RunLen: 256, SampleSize: 32}, seed, func(r *rand.Rand) string {
		return fmt.Sprintf("k%04d", r.Intn(3000))
	}))

	checks := make([]func(*testing.T), len(cases))
	var wg sync.WaitGroup
	for i, run := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checks[i] = run()
		}()
	}
	wg.Wait()
	for _, check := range checks {
		check(t)
	}
}

// signedZeroFloat draws float64 keys of which a fifth are −0 and a fifth
// +0, so equal samples of both signs meet in every run.
func signedZeroFloat(r *rand.Rand) float64 {
	switch r.Intn(5) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	}
	return math.Round(r.NormFloat64()*100) / 4
}

// streamStep is one call of a builder schedule.
type streamStep struct {
	op     int // stepAdd, stepBatch, stepNaN, stepSummary or stepSeal
	lo, hi int // the keys of stepAdd and stepBatch
}

const (
	stepAdd = iota
	stepBatch
	stepNaN // a ragged batch holding a NaN, which must be rejected
	stepSummary
	stepSeal
)

// pooledRunsCase returns a case of TestStreamBuilderPooledRunsNeverCross:
// run drives a builder through a seeded schedule over about twenty runs of
// keys and returns the check that replays the schedule serially on a twin.
func pooledRunsCase[T cmp.Ordered](cfg Config, seed int64, key func(*rand.Rand) T) func() func(*testing.T) {
	r := rand.New(rand.NewSource(seed))
	keys := make([]T, 20*cfg.RunLen+r.Intn(cfg.RunLen))
	for i := range keys {
		keys[i] = key(r)
	}
	var sched []streamStep
	for at := 0; at < len(keys); {
		switch x := r.Intn(20); {
		case x < 4:
			sched = append(sched, streamStep{op: stepAdd, lo: at, hi: min(at+r.Intn(cfg.RunLen/2)+1, len(keys))})
		case x < 14:
			sched = append(sched, streamStep{op: stepBatch, lo: at, hi: min(at+r.Intn(5*cfg.RunLen/2)+1, len(keys))})
		case x < 15:
			sched = append(sched, streamStep{op: stepNaN})
			continue
		case x < 18:
			sched = append(sched, streamStep{op: stepSummary})
			continue
		default:
			sched = append(sched, streamStep{op: stepSeal})
			continue
		}
		at = sched[len(sched)-1].hi
	}
	play := func() ([]*Summary[T], []*Summary[T], error) {
		b, err := NewStreamBuilder[T](cfg)
		if err != nil {
			return nil, nil, err
		}
		var outs, sealed []*Summary[T]
		for _, st := range sched {
			switch st.op {
			case stepAdd:
				for _, v := range keys[st.lo:st.hi] {
					if err := b.Add(v); err != nil {
						return nil, nil, err
					}
				}
			case stepBatch:
				if err := b.AddBatch(keys[st.lo:st.hi]); err != nil {
					return nil, nil, err
				}
			case stepNaN:
				nan, ok := any(math.NaN()).(T)
				if !ok {
					continue
				}
				n := b.N()
				batch := append([]T(nil), keys[:cfg.RunLen+7]...)
				batch[len(batch)/2] = nan
				if err := b.AddBatch(batch); !errors.Is(err, ErrNaN) {
					return nil, nil, fmt.Errorf("batch holding a NaN: err %v, want ErrNaN", err)
				}
				if b.N() != n {
					return nil, nil, fmt.Errorf("batch holding a NaN moved N from %d to %d", n, b.N())
				}
			case stepSummary:
				s, err := b.Summary()
				if err != nil {
					return nil, nil, err
				}
				outs = append(outs, s)
			case stepSeal:
				s := b.Seal()
				outs = append(outs, s)
				sealed = append(sealed, s)
			}
		}
		final, err := b.Summary()
		if err != nil {
			return nil, nil, err
		}
		return append(outs, final), append(sealed, final), nil
	}
	return func() func(*testing.T) {
		got, sealed, err := play()
		return func(t *testing.T) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			want, _, err := play()
			if err != nil {
				t.Fatalf("seed %d: serial twin: %v", seed, err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d: %d summaries, twin %d", seed, len(got), len(want))
			}
			for i := range got {
				if d := summaryDiff(got[i], want[i]); d != "" {
					t.Fatalf("seed %d: summary %d of %d differs from the serial twin's: %s", seed, i, len(got), d)
				}
			}
			all, err := MergeAll(sealed)
			if err != nil {
				t.Fatal(err)
			}
			built, err := BuildFromSlice(keys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := summaryDiff(all, built); d != "" {
				t.Fatalf("seed %d: sealed summaries and the final Summary differ from BuildFromSlice: %s", seed, d)
			}
		}
	}
}

// summaryDiff describes how a and b differ in their samples, bit for bit
// (−0 and +0 print differently), N, extrema and ErrorBound; "" if they
// do not.
func summaryDiff[T cmp.Ordered](a, b *Summary[T]) string {
	if a.N() != b.N() || a.ErrorBound() != b.ErrorBound() {
		return fmt.Sprintf("N %d vs %d, ErrorBound %d vs %d", a.N(), b.N(), a.ErrorBound(), b.ErrorBound())
	}
	if x, y := fmt.Sprint(a.Min(), a.Max()), fmt.Sprint(b.Min(), b.Max()); x != y {
		return fmt.Sprintf("extrema %s vs %s", x, y)
	}
	as, bs := a.Samples(), b.Samples()
	if len(as) != len(bs) {
		return fmt.Sprintf("%d samples vs %d", len(as), len(bs))
	}
	for i := range as {
		if x, y := fmt.Sprint(as[i]), fmt.Sprint(bs[i]); x != y {
			return fmt.Sprintf("sample %d: %s vs %s", i, x, y)
		}
	}
	return ""
}
