package core

import (
	"cmp"
	"fmt"

	"opaq/internal/merge"
	"opaq/internal/selection"
)

// StreamBuilder ingests elements one at a time (or in arbitrary batches)
// and maintains an OPAQ summary over everything seen so far. It is the
// push-based counterpart of Build for callers that do not have their data
// behind a RunReader — e.g. a metrics pipeline observing latencies.
//
// Internally it buffers up to RunLen elements; each full buffer becomes
// one run and is sampled exactly as the pull-based sample phase would —
// with selection.SampleRun, and a string run i seeds its RNG from the
// same run-index derivation Build uses — so Summary() is bit-identical
// to running Build over the same element sequence at any Config.Workers
// setting. The buffered tail (a partial run) is folded in on Summary()
// with the same ragged-run accounting Build uses, at the cost of sampling
// a copy of it. NaN keys are rejected with ErrNaN.
//
// # Sealing
//
// For epoch-based lifecycles (a serving engine aging summaries out of its
// merge set), Seal detaches everything that has completed a whole run into
// an immutable Summary and resets the builder's run state, while the
// in-progress partial run stays buffered and flows into the next epoch.
// Because a seal never cuts a run, the multiset of per-run sample lists —
// and therefore the merge of all sealed summaries plus Summary() — is
// byte-identical to never having sealed at all.
type StreamBuilder[T cmp.Ordered] struct {
	cfg Config
	buf []T

	// State of whole runs flushed since the last Seal.
	lists    [][]T // per-run sorted sample lists
	runs     int64 // whole runs
	runN     int64 // elements in those runs (runs·RunLen)
	leftover int64 // elements of those runs not covered by a sub-run
	runMin   T     // extrema over those runs; valid when runs > 0
	runMax   T

	// Extrema of the buffered partial run; valid when len(buf) > 0.
	bufMin, bufMax T

	// seq counts runs flushed over the builder's lifetime, across seals,
	// so a multi-selected run's RNG keeps the same run-index derivation
	// Build uses.
	seq int64
}

// NewStreamBuilder returns a streaming builder for the given config.
func NewStreamBuilder[T cmp.Ordered](cfg Config) (*StreamBuilder[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &StreamBuilder[T]{
		cfg: cfg,
		buf: make([]T, 0, cfg.RunLen),
	}, nil
}

// Add observes one element. Amortized cost is one run's sampling cost
// divided by RunLen. A NaN is rejected with ErrNaN and not observed.
func (b *StreamBuilder[T]) Add(v T) error {
	if v != v {
		return ErrNaN
	}
	if len(b.buf) == 0 {
		b.bufMin, b.bufMax = v, v
	} else {
		if v < b.bufMin {
			b.bufMin = v
		}
		if v > b.bufMax {
			b.bufMax = v
		}
	}
	b.buf = append(b.buf, v)
	if len(b.buf) == b.cfg.RunLen {
		return b.flush()
	}
	return nil
}

// AddBatch observes a batch of elements. It is equivalent to calling Add
// per element but copies run-sized chunks into the buffer wholesale, so
// the per-element cost is one extrema comparison plus the memmove — on
// the wire-speed ingest path the per-call overhead of Add is measurable.
// A batch holding a NaN is rejected whole with ErrNaN: the check runs
// before anything is buffered, so N() does not move.
func (b *StreamBuilder[T]) AddBatch(vs []T) error {
	for i, v := range vs {
		if v != v {
			return fmt.Errorf("%w: element %d of the batch", ErrNaN, i)
		}
	}
	for len(vs) > 0 {
		if len(b.buf) == 0 {
			b.bufMin, b.bufMax = vs[0], vs[0]
		}
		take := min(b.cfg.RunLen-len(b.buf), len(vs))
		chunk := vs[:take]
		lo, hi := b.bufMin, b.bufMax
		for _, v := range chunk {
			if v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
		}
		b.bufMin, b.bufMax = lo, hi
		b.buf = append(b.buf, chunk...)
		vs = vs[take:]
		if len(b.buf) == b.cfg.RunLen {
			if err := b.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// N returns the number of elements the builder currently holds: whole runs
// not yet detached by Seal, plus the buffered partial run. Before any Seal
// this is everything observed since creation.
func (b *StreamBuilder[T]) N() int64 { return b.runN + int64(len(b.buf)) }

// Buffered returns the size of the in-progress partial run — the elements
// a Seal would leave behind for the next epoch.
func (b *StreamBuilder[T]) Buffered() int { return len(b.buf) }

// flush samples the buffered run, folds it into the whole-run state and
// clears the buffer.
func (b *StreamBuilder[T]) flush() error {
	step := b.cfg.Step()
	si := len(b.buf) / step
	b.leftover += int64(len(b.buf) - si*step)
	b.runN += int64(len(b.buf))
	if b.runs == 0 {
		b.runMin, b.runMax = b.bufMin, b.bufMax
	} else {
		if b.bufMin < b.runMin {
			b.runMin = b.bufMin
		}
		if b.bufMax > b.runMax {
			b.runMax = b.bufMax
		}
	}
	b.runs++
	b.seq++
	if si > 0 {
		samples, err := selection.SampleRun(b.buf, step, runSeed(b.seq-1))
		if err != nil {
			return err
		}
		b.lists = append(b.lists, samples)
	}
	// SampleRun reorders the run in place but its sample list is a fresh
	// slice, so the run buffer is dead here and can be refilled in place.
	b.buf = b.buf[:0]
	return nil
}

// Seal detaches the whole runs accumulated since the previous Seal as an
// immutable Summary and resets the builder's run state. The buffered
// partial run is NOT included — it stays in the builder, keeps filling
// toward RunLen, and belongs to whatever summary is cut next — so sealing
// never splits a run and the concatenation of sealed summaries plus a
// final Summary() covers exactly the observed sequence with exactly the
// run composition an unsealed builder would have had.
//
// When no whole run has completed since the last Seal, the canonical empty
// summary is returned (N() == 0) and the builder is unchanged.
func (b *StreamBuilder[T]) Seal() *Summary[T] {
	if b.runs == 0 {
		return emptySummary[T](int64(b.cfg.Step()))
	}
	total := 0
	for _, l := range b.lists {
		total += len(l)
	}
	s := &Summary[T]{
		samples:  merge.KWayInto(getSamples[T](total), b.lists),
		step:     int64(b.cfg.Step()),
		runs:     b.runs,
		n:        b.runN,
		leftover: b.leftover,
		min:      b.runMin,
		max:      b.runMax,
	}
	var zero T
	b.lists, b.runs, b.runN, b.leftover = nil, 0, 0, 0
	b.runMin, b.runMax = zero, zero
	return s
}

// Summary returns the summary over everything the builder currently holds
// (see N). The builder remains usable afterwards; the buffered partial run
// is consumed as a (ragged) run of its own, exactly as Build treats a
// short final run.
func (b *StreamBuilder[T]) Summary() (*Summary[T], error) {
	if b.N() == 0 {
		// Identical to Build over an empty reader: the canonical empty
		// summary (ErrEmpty from Bounds, zero-valued extrema), not an error.
		return emptySummary[T](int64(b.cfg.Step())), nil
	}
	// Fold the tail into a copy of the state so ingestion can continue.
	lists := b.lists
	runs, leftover := b.runs, b.leftover
	minV, maxV := b.runMin, b.runMax
	if runs == 0 {
		minV, maxV = b.bufMin, b.bufMax
	}
	if len(b.buf) > 0 {
		step := b.cfg.Step()
		si := len(b.buf) / step
		leftover += int64(len(b.buf) - si*step)
		runs++
		if si > 0 {
			// The tail must be copied (ingestion continues into b.buf), but
			// the copy is pure scratch: SampleRun reorders it and returns a
			// fresh sample list, so it goes straight back to the pool.
			cp := append(getSamples[T](len(b.buf)), b.buf...)
			samples, err := selection.SampleRun(cp, step, runSeed(b.seq))
			putSamples(cp)
			if err != nil {
				return nil, err
			}
			lists = append(lists[:len(lists):len(lists)], samples)
		}
		if b.bufMin < minV {
			minV = b.bufMin
		}
		if b.bufMax > maxV {
			maxV = b.bufMax
		}
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	return &Summary[T]{
		samples:  merge.KWayInto(getSamples[T](total), lists),
		step:     int64(b.cfg.Step()),
		runs:     runs,
		n:        b.N(),
		leftover: leftover,
		min:      minV,
		max:      maxV,
	}, nil
}
