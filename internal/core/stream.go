package core

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"

	"opaq/internal/runio"
	"opaq/internal/selection"
)

// StreamBuilder ingests elements one at a time (or in arbitrary batches)
// and maintains an OPAQ summary over everything seen so far. It is the
// push-based face of the sample phase for callers that do not have their
// data behind a RunReader — e.g. a metrics pipeline observing latencies —
// and the per-worker state Build folds a scan into.
//
// Internally it buffers up to RunLen elements; each full buffer becomes
// one run and goes through the same per-run fold as Build's runs — with
// selection.SampleRun, and a string run i seeds its RNG from the same
// run-index derivation Build uses — so Summary() is bit-identical to
// running Build over the same element sequence at any Config.Workers
// setting. Summary() folds the buffered partial run in as a ragged run of
// its own, selecting it where it is buffered. NaN keys are rejected with
// ErrNaN.
//
// A run that fills is not sampled by the call that fills it. It stays
// buffered, whole, until Settle, the next Add or AddBatch, Seal or
// Summary samples it, so a caller can return once the keys are buffered
// and sample the run off its own path: the engine settles a stripe after
// the ingest that filled it has returned. A batch that spans runs samples
// every run but its last as it goes. N counts a waiting run.
//
// A partial run costs the keys it holds. A builder borrows a buffer when
// the first key of a run arrives, sized to the keys at hand (the next
// power of two at or above them, at least 64, at most RunLen), and
// doubles it toward RunLen as keys arrive, so a key is copied at most
// once more on average; an idle builder holds none. Whole runs are a loan
// from runio's run pool, shared by every builder and run reader of the
// same element type and RunLen, as the paper's sample phase reuses one
// run's memory run after run: a buffer that reaches RunLen comes from
// the pool and goes back when the run's flush empties it, a new or
// growing partial run takes a spare whole run from the pool when one is
// idle, and each flush samples its run through a second whole run from
// the pool as scratch, on the scatter path Build takes, and gives that
// back too.
//
// A run's extrema are read off the run once it is selected, on every
// path alike (see runExtrema), so −0 and +0 land in a summary's Min and
// Max the same way whether the keys came through Add, AddBatch or Build.
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
	// run is the buffered run while it holds at least one element and nil
	// otherwise; its capacity grows toward RunLen (see reserve). It holds
	// RunLen elements only while a filled run waits for Settle.
	run []T

	// State of the runs folded in since the last Seal.
	lists    [][]T // per-run sorted sample lists
	runs     int64 // runs folded in
	runN     int64 // elements in those runs
	leftover int64 // elements of those runs not covered by a sub-run
	runMin   T     // extrema over those runs; valid when runs > 0
	runMax   T

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
	return &StreamBuilder[T]{cfg: cfg}, nil
}

// Add observes one element. Amortized cost is one run's sampling cost
// divided by RunLen, paid by the call after the one that fills a run (see
// Settle). A NaN is rejected with ErrNaN and not observed.
func (b *StreamBuilder[T]) Add(v T) error {
	if v != v {
		return ErrNaN
	}
	if err := b.Settle(); err != nil {
		return err
	}
	if b.run == nil || len(b.run) == cap(b.run) {
		b.reserve(1)
	}
	b.run = append(b.run, v)
	return nil
}

// AddBatch observes a batch of elements. It is equivalent to calling Add
// per element but copies run-sized chunks into the buffer wholesale, so
// the per-element cost is the memmove — on the wire-speed ingest path the
// per-call overhead of Add is measurable. Every run the batch fills is
// sampled before the next chunk is copied, except the last, which waits
// for Settle. A batch holding a NaN is rejected whole with ErrNaN: the
// check runs before anything is buffered, so N() does not move.
func (b *StreamBuilder[T]) AddBatch(vs []T) error {
	if i := IndexNaN(vs); i >= 0 {
		return fmt.Errorf("%w: element %d of the batch", ErrNaN, i)
	}
	for len(vs) > 0 {
		if err := b.Settle(); err != nil {
			return err
		}
		take := min(b.cfg.RunLen-len(b.run), len(vs))
		b.reserve(take)
		b.run = append(b.run, vs[:take]...)
		vs = vs[take:]
	}
	return nil
}

// Settle samples a run that filled and waits, if there is one: it folds
// the run in as the builder's next run and gives its buffer back to the
// pool. It is how a caller that returned once a run's keys were buffered
// pays for the run later, off its own path; Add, AddBatch, Seal and
// Summary settle first, so a caller that never calls Settle gets the same
// summaries.
func (b *StreamBuilder[T]) Settle() error {
	if len(b.run) < b.cfg.RunLen {
		return nil
	}
	return b.flush()
}

// N returns the number of elements the builder currently holds: whole runs
// not yet detached by Seal, plus the buffered run. Before any Seal this is
// everything observed since creation.
func (b *StreamBuilder[T]) N() int64 { return b.runN + int64(len(b.run)) }

// Buffered returns the number of elements buffered and not yet sampled:
// the in-progress partial run, or a whole run that waits for Settle. A
// Seal samples a waiting run and leaves a partial one behind for the
// next epoch.
func (b *StreamBuilder[T]) Buffered() int { return len(b.run) }

// reserve makes room in the buffered run for n more keys, n ≤ RunLen −
// Buffered(): it borrows the run's first buffer (see runio.GetRun), or
// moves the keys to one of at least twice the capacity when they do not
// fit.
func (b *StreamBuilder[T]) reserve(n int) {
	if b.run == nil {
		b.run = runio.GetRun[T](b.cfg.RunLen, n)
		return
	}
	if need := len(b.run) + n; need > cap(b.run) {
		b.run = append(runio.GetRun[T](b.cfg.RunLen, max(need, 2*cap(b.run))), b.run...)
	}
}

// flush folds the full run buffer in as the builder's next run, sampling
// it through a scratch run lent for the call, and gives both buffers back
// to the pool: the sample list is a fresh slice, so neither holds
// anything live. On an error the run stays buffered.
func (b *StreamBuilder[T]) flush() error {
	scratch := runio.GetRun[T](b.cfg.RunLen, b.cfg.RunLen)
	defer runio.PutRun(scratch)
	if err := b.fold(b.run, runSeed(b.seq), scratch[:b.cfg.RunLen]); err != nil {
		return err
	}
	b.seq++
	runio.PutRun(b.run)
	b.run = nil
	return nil
}

// addRun folds in one whole run of a scan: it rejects NaN and samples
// the run in place, with no copy, under the seed of its scan index idx,
// scattering through scratch if it is at least as long as run (see
// selection.SampleRun). run and scratch are reordered and not retained.
func (b *StreamBuilder[T]) addRun(run []T, idx int64, scratch []T) error {
	if i := IndexNaN(run); i >= 0 {
		return fmt.Errorf("%w: element %d of run %d", ErrNaN, i, idx)
	}
	return b.fold(run, runSeed(idx), scratch)
}

// fold is the per-run step of the sample phase: it adds a non-empty run
// to the whole-run state, including its regular samples at ranks
// k·step−1 when it spans at least one sub-run, and the extrema it reads
// off the selected run. run is reordered in place, through scratch if
// that is at least as long as run; the sample list is a fresh slice.
func (b *StreamBuilder[T]) fold(run []T, seed int64, scratch []T) error {
	step := b.cfg.Step()
	si := len(run) / step // samples this run contributes
	if si > 0 {
		samples, err := selection.SampleRun(run, scratch, step, seed)
		if err != nil {
			return fmt.Errorf("core: sample phase select: %w", err)
		}
		b.lists = append(b.lists, samples)
	}
	lo, hi := runExtrema(run, step)
	b.count(1, int64(len(run)), int64(len(run)-si*step), lo, hi)
	return nil
}

// runExtrema returns the extrema of a run that selection.SampleRun has
// selected at ranks k·step−1, which leaves it partitioned around them:
// the minimum is the smallest of the first step keys, and the maximum is
// the last sample when step divides the run and otherwise the largest key
// after the last sample rank. A run shorter than step is scanned whole.
// It compares with the builtin min and max, which take −0 as below +0.
func runExtrema[T cmp.Ordered](run []T, step int) (lo, hi T) {
	last := len(run) / step * step // keys up to the last sample rank
	switch {
	case last == 0:
		return slices.Min(run), slices.Max(run)
	case last == len(run):
		return slices.Min(run[:step]), run[last-1]
	}
	return slices.Min(run[:step]), slices.Max(run[last:])
}

// IndexNaN returns the index of the first NaN in vs, or -1 if it holds
// none. Integer and string kinds cannot hold a NaN, so for them it reads
// nothing; every other key type, named float types included, is checked
// key by key.
func IndexNaN[T cmp.Ordered](vs []T) int {
	switch reflect.TypeFor[T]().Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.String:
		return -1
	}
	for i, v := range vs {
		if v != v {
			return i
		}
	}
	return -1
}

// count adds runs whole runs, n elements in all of which leftover lie
// outside every sub-run, with extrema lo and hi, to the whole-run state.
func (b *StreamBuilder[T]) count(runs, n, leftover int64, lo, hi T) {
	if b.runs == 0 {
		b.runMin, b.runMax = lo, hi
	} else {
		b.runMin, b.runMax = min(b.runMin, lo), max(b.runMax, hi)
	}
	b.runs += runs
	b.runN += n
	b.leftover += leftover
}

// Seal detaches the whole runs accumulated since the previous Seal as an
// immutable Summary and resets the builder's run state. A whole run that
// waits for Settle is sampled first and sealed with the rest; were its
// sampling to fail, it would stay buffered, and the next call that
// settles would report the error. The buffered partial run is NOT
// included — it stays in the builder, keeps filling
// toward RunLen, and belongs to whatever summary is cut next — so sealing
// never splits a run and the concatenation of sealed summaries plus a
// final Summary() covers exactly the observed sequence with exactly the
// run composition an unsealed builder would have had.
//
// When no whole run has completed since the last Seal, the canonical empty
// summary is returned (N() == 0) and the builder is unchanged.
func (b *StreamBuilder[T]) Seal() *Summary[T] {
	_ = b.Settle() // a failed sample leaves the run buffered; see above
	return b.seal(1)
}

// seal is Seal with the sample lists merged across workers (see
// mergeLists); the merge, and so the Summary, is the same at every count.
func (b *StreamBuilder[T]) seal(workers int) *Summary[T] {
	if b.runs == 0 {
		return emptySummary[T](int64(b.cfg.Step()))
	}
	s := &Summary[T]{
		samples:  mergeLists(b.lists, workers),
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
// (see N). It settles a waiting whole run first (see Settle). The builder
// remains usable afterwards; the buffered partial run is consumed as a
// (ragged) run of its own, exactly as Build treats a short final run.
//
// The partial run is selected where it is buffered, with no copy, so
// Summary reorders the buffered keys. A run's samples and extrema are its
// order statistics, which no reordering changes, so the flush that later
// completes the run selects the same samples; float keys, named types
// included, are radix-selected by bit pattern, so even which of equal −0
// and +0 keys lands at a sample rank does not depend on the run's order.
func (b *StreamBuilder[T]) Summary() (*Summary[T], error) {
	if err := b.Settle(); err != nil {
		return nil, err
	}
	// Fold the tail into a copy of the state and seal the copy, so
	// ingestion can continue. The copy's list slice is clipped, so the
	// fold's append reallocates instead of writing the tail's samples into
	// the builder's spare capacity.
	c := *b
	c.lists = b.lists[:len(b.lists):len(b.lists)]
	if len(b.run) > 0 {
		if err := c.fold(b.run, runSeed(b.seq), nil); err != nil {
			return nil, err
		}
	}
	return c.seal(1), nil
}
