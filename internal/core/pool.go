package core

import (
	"cmp"
	"reflect"
	"sync"
)

// samplePools holds one sync.Pool of sample buffers per element type.
// Package-level generic variables are not a thing, so the per-type pools
// live behind a map; the lookup is one sync.Map load, and only the
// buffers themselves are pooled. Run memory has a pool of its own (see
// runio.GetRun).
var samplePools sync.Map // reflect.Type → *sync.Pool

func samplePool[T any]() *sync.Pool {
	key := reflect.TypeFor[T]()
	if p, ok := samplePools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := samplePools.LoadOrStore(key, new(sync.Pool))
	return p.(*sync.Pool)
}

// getSamples returns a zero-length buffer with capacity ≥ n, drawn from
// the pool when a large-enough buffer is available. Buffers returned here
// flow into long-lived summaries; only RecycleSummary (or putSamples, for
// scratch the caller provably owns) ever sends one back.
func getSamples[T any](n int) []T {
	p := samplePool[T]()
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
	samplePool[T]().Put(b[:0])
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
