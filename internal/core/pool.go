package core

import (
	"cmp"
	"math/bits"
	"reflect"
	"sync"
)

// pools holds the package's buffer pools, one sync.Pool per poolKey.
// Package-level generic variables are not a thing, so the per-type pools
// live behind a map; the lookup is one sync.Map load, and only the
// buffers themselves are pooled.
var pools sync.Map // poolKey → *sync.Pool

// poolKey names one pool: an element type's sample buffers of any
// capacity (runLen 0), or its run buffers of capacity runLen.
type poolKey struct {
	elem   reflect.Type
	runLen int
}

func poolFor[T any](runLen int) *sync.Pool {
	key := poolKey{reflect.TypeFor[T](), runLen}
	if p, ok := pools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := pools.LoadOrStore(key, new(sync.Pool))
	return p.(*sync.Pool)
}

// getSamples returns a zero-length buffer with capacity ≥ n, drawn from
// the pool when a large-enough buffer is available. Buffers returned here
// flow into long-lived summaries; only RecycleSummary (or putSamples, for
// scratch the caller provably owns) ever sends one back.
func getSamples[T any](n int) []T {
	p := poolFor[T](0)
	if v := p.Get(); v != nil {
		if b := v.([]T); cap(b) >= n {
			return b[:0]
		}
		// Too small for this merge; leave it for a smaller one.
		p.Put(v)
	}
	return make([]T, 0, n)
}

// putSamples returns a buffer to the pool. The caller must be the
// buffer's exclusive owner: nothing may read it afterwards.
func putSamples[T any](b []T) {
	if cap(b) == 0 {
		return
	}
	poolFor[T](0).Put(b[:0])
}

// minRun is the capacity a partial run's first buffer gets at least: a
// stripe that buffers a few keys holds a few hundred bytes, not a run.
const minRun = 64

// getRun lends a zero-length buffer with room for n ≤ runLen keys: the
// memory of a StreamBuilder's partial run or of a sampling scratch. Run
// memory is a loan, as the paper's sample phase reuses one run's memory
// run after run. getRun takes a spare whole run from the pool when one
// is idle, since that memory is live already, and otherwise makes a
// buffer of the next power of two at or above n keys, at least minRun
// and at most runLen, so a partial run costs the keys it holds and grows
// toward runLen as they arrive. Give a whole run back with putRun once
// its contents are dead; the pool holds pointers, so neither call
// allocates once it is warm.
func getRun[T any](runLen, n int) *[]T {
	if v := poolFor[T](runLen).Get(); v != nil {
		return v.(*[]T)
	}
	b := make([]T, 0, min(max(minRun, 1<<bits.Len(uint(n-1))), runLen))
	return &b
}

// putRun returns a whole run lent by getRun to the pool; a nil b is a
// no-op. The caller must be its exclusive owner: nothing may read *b
// afterwards.
func putRun[T any](b *[]T) {
	if b == nil {
		return
	}
	*b = (*b)[:0]
	poolFor[T](cap(*b)).Put(b)
}

// RecycleSummary returns s's sample buffer to the merge-buffer pool and
// leaves s empty. Call it only on a summary the caller owns exclusively —
// one that is not (and never again will be) reachable from any snapshot,
// epoch ring or concurrent reader. The serving engine uses it on stripe
// summaries after each snapshot rebuild has merged them; ring epochs are
// never recycled, because a concurrent rebuild may still be reading them.
//
// Merge and MergeAll fast-path empty inputs by returning the other
// argument unchanged, so never recycle a summary that was passed to Merge:
// the result may alias it. MergeAll's result never aliases its inputs.
func RecycleSummary[T cmp.Ordered](s *Summary[T]) {
	if s == nil || s.samples == nil {
		return
	}
	putSamples(s.samples)
	*s = Summary[T]{step: s.step}
}
