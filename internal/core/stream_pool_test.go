package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// raceEnabled reports a build with the race detector (see race_test.go),
// under which sync.Pool drops a random share of Puts.
var raceEnabled bool

// TestStreamBuilderHoldsRunOnlyWhilePartial pins the run-buffer loan: a
// builder holds no buffer until a run's first key arrives, holds the
// whole run when a call ends on a run boundary, gives it back when Settle
// samples it, and holds one buffer while it buffers a partial run, across
// Summary and Seal. That buffer is a spare whole run when the pool had
// one idle; otherwise its capacity is bound by the keys it holds — at
// most twice them, and at least 64 — as it grows toward RunLen, key by
// key or batch by batch.
func TestStreamBuilderHoldsRunOnlyWhilePartial(t *testing.T) {
	cfg := Config{RunLen: 1536, SampleSize: 8}
	b, err := NewStreamBuilder[int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	// holds checks that b buffers want keys; spare says a whole run was
	// idle in the pool when the partial run began.
	holds := func(when string, want int, spare bool) {
		t.Helper()
		switch {
		case want == 0 && b.run != nil:
			t.Fatalf("%s: holds a buffer of %d keys, want none", when, len(b.run))
		case want == 0:
		case b.run == nil:
			t.Fatalf("%s: holds no buffer, want one of %d keys", when, want)
		case len(b.run) != want:
			t.Fatalf("%s: buffer holds %d keys, want %d", when, len(b.run), want)
		case spare && !raceEnabled && cap(b.run) != cfg.RunLen:
			t.Fatalf("%s: buffer cap %d, want the spare whole run of %d", when, cap(b.run), cfg.RunLen)
		case !spare && cap(b.run) > min(cfg.RunLen, max(64, 2*want)):
			t.Fatalf("%s: buffer cap %d for %d keys, want ≤ %d",
				when, cap(b.run), want, min(cfg.RunLen, max(64, 2*want)))
		}
	}
	// settles checks that a call that ended on a run boundary left the
	// whole run buffered, and that Settle gives it back.
	settles := func(when string) {
		t.Helper()
		holds(when, cfg.RunLen, false)
		if err := b.Settle(); err != nil {
			t.Fatal(err)
		}
		holds(when+", settled", 0, false)
	}
	keys := make([]int64, 3*cfg.RunLen+5)
	for i := range keys {
		keys[i] = int64(i * 7 % 101)
	}
	holds("new", 0, false)
	if err := b.AddBatch(keys[:3*cfg.RunLen]); err != nil {
		t.Fatal(err)
	}
	settles("after three whole runs in one batch")
	for _, v := range keys[:cfg.RunLen] {
		if err := b.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	settles("after a whole run of Adds")
	if err := b.AddBatch(keys); err != nil {
		t.Fatal(err)
	}
	holds("after a ragged batch, its flushes' runs idle", 5, true)
	if _, err := b.Summary(); err != nil {
		t.Fatal(err)
	}
	if s := b.Seal(); s.N() != int64(7*cfg.RunLen) {
		t.Fatalf("sealed N = %d, want %d", s.N(), 7*cfg.RunLen)
	}
	holds("after Summary and Seal", 5, true)
	if err := b.AddBatch(keys[:cfg.RunLen-5]); err != nil {
		t.Fatal(err)
	}
	settles("after the partial run completes")
	if b.N() != int64(cfg.RunLen) || b.Buffered() != 0 {
		t.Fatalf("N %d, Buffered %d after the run that completed past the seal, want %d and 0",
			b.N(), b.Buffered(), cfg.RunLen)
	}

	// With no spare run idle — two collections empty every pool — a
	// partial run grows with its keys, one Add at a time.
	runtime.GC()
	runtime.GC()
	for i, v := range keys[:cfg.RunLen-1] {
		if err := b.Add(v); err != nil {
			t.Fatal(err)
		}
		holds(fmt.Sprintf("after Add %d", i+1), i+1, false)
		if i == 700 {
			if _, err := b.Summary(); err != nil {
				t.Fatal(err)
			}
			b.Seal()
			holds("after Summary and Seal mid-run", i+1, false)
		}
	}
	if err := b.Add(keys[cfg.RunLen-1]); err != nil {
		t.Fatal(err)
	}
	settles("after the grown run completes")

	// And batch by batch.
	runtime.GC()
	runtime.GC()
	held := 0
	for _, n := range []int{5, 59, 1, 100, 300, 600, 470} {
		if err := b.AddBatch(keys[:n]); err != nil {
			t.Fatal(err)
		}
		held += n
		holds(fmt.Sprintf("after a batch of %d", n), held, false)
	}
}

// TestStreamBuilderPooledRunsNeverCross drives builders that share run
// pools — two RunLens, several int64 and float64 builders each, and one
// string builder — from concurrent goroutines that interleave Add, ragged
// AddBatch, Summary and Seal, so partial runs and sampling scratch pass
// through the pools between builders. Ragged batches also take the
// partial run onto and across every capacity its buffer grows through,
// up to RunLen, whether it grows or took a spare whole run. Every summary
// must match the one a serial twin builds over the same schedule (every
// part, samples and extrema bit for bit), the sealed summaries and the
// final Summary() together must match BuildFromSlice over all the keys,
// and a batch holding a NaN must leave N() unchanged.
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
	// The schedule opens with a staircase of ragged batches that fill the
	// partial run to each capacity its buffer grows through (64, 128, …,
	// RunLen) and then cross it.
	var sched []streamStep
	batch := func(lo, hi int) streamStep { return streamStep{op: stepBatch, lo: lo, hi: min(hi, len(keys))} }
	at := 0
	for c := 0; c < cfg.RunLen; {
		c = nextGrowth(at, cfg.RunLen)
		sched = append(sched, batch(at, c), batch(c, c+1))
		at = c + 1
	}
	for at < len(keys) {
		switch x := r.Intn(22); {
		case x < 4:
			sched = append(sched, streamStep{op: stepAdd, lo: at, hi: min(at+r.Intn(cfg.RunLen/2)+1, len(keys))})
		case x < 14:
			sched = append(sched, batch(at, at+r.Intn(5*cfg.RunLen/2)+1))
		case x < 16:
			// Onto the next capacity or up to two keys past it.
			p := at % cfg.RunLen // keys buffered: seals never cut a run
			sched = append(sched, batch(at, at+nextGrowth(p, cfg.RunLen)-p+r.Intn(3)))
		case x < 17:
			sched = append(sched, streamStep{op: stepNaN})
			continue
		case x < 20:
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

// nextGrowth returns the smallest capacity above n that a partial run's
// buffer grows through on its way to runLen: a power of two of at least
// 64, or runLen itself.
func nextGrowth(n, runLen int) int {
	c := 64
	for c <= n {
		c *= 2
	}
	return min(c, runLen)
}

// summaryDiff describes how a and b differ in any of their parts, with
// the samples and extrema compared bit for bit (see sameBits); "" if they
// do not.
func summaryDiff[T cmp.Ordered](a, b *Summary[T]) string {
	pa, pb := a.Parts(), b.Parts()
	if pa.Step != pb.Step || pa.Runs != pb.Runs || pa.N != pb.N || pa.Leftover != pb.Leftover {
		return fmt.Sprintf("step/runs/N/leftover %d/%d/%d/%d vs %d/%d/%d/%d",
			pa.Step, pa.Runs, pa.N, pa.Leftover, pb.Step, pb.Runs, pb.N, pb.Leftover)
	}
	if !sameBits(pa.Min, pb.Min) || !sameBits(pa.Max, pb.Max) {
		return fmt.Sprintf("extrema [%v, %v] vs [%v, %v]", pa.Min, pa.Max, pb.Min, pb.Max)
	}
	if len(pa.Samples) != len(pb.Samples) {
		return fmt.Sprintf("%d samples vs %d", len(pa.Samples), len(pb.Samples))
	}
	for i := range pa.Samples {
		if x, y := pa.Samples[i], pb.Samples[i]; !sameBits(x, y) {
			return fmt.Sprintf("sample %d: %v vs %v", i, x, y)
		}
	}
	return ""
}

// sameBits reports whether a and b are the same key bit for bit: unlike
// == and reflect.DeepEqual, it tells −0 from +0, for named float types
// too.
func sameBits[T cmp.Ordered](a, b T) bool {
	if va := reflect.ValueOf(a); va.CanFloat() {
		return math.Float64bits(va.Float()) == math.Float64bits(reflect.ValueOf(b).Float())
	}
	return a == b
}
