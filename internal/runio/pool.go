package runio

import (
	"math/bits"
	"reflect"
	"sync"
)

// runPools holds the run pool, one sync.Pool of whole runs per element
// type and run length. Package-level generic variables are not a thing,
// so the per-type pools live behind a map; the lookup is one sync.Map
// load, and only the runs themselves are pooled. The pool of capacity 0
// holds spare slice headers: a sync.Pool holds a run by a pointer to its
// header, so GetRun parks the header of each run it lends there and
// PutRun takes one back for the run it is given, and neither allocates
// once the pools are warm.
var runPools sync.Map // runKey → *sync.Pool

// runKey names the pool of one element type's runs of capacity runLen.
type runKey struct {
	elem   reflect.Type
	runLen int
}

func runPool[T any](runLen int) *sync.Pool {
	key := runKey{reflect.TypeFor[T](), runLen}
	if p, ok := runPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := runPools.LoadOrStore(key, new(sync.Pool))
	return p.(*sync.Pool)
}

// minRun is the capacity a partial run's first buffer gets at least: a
// stripe that buffers a few keys holds a few hundred bytes, not a run.
const minRun = 64

// GetRun lends a zero-length buffer with room for n ≤ runLen keys. It is
// the one source of run memory: the file and memory readers read each run
// into one, and a StreamBuilder buffers its partial run and samples each
// flush through them. Run memory is a loan, as the paper's sample phase
// reuses one run's memory run after run. GetRun takes a spare whole run
// from the pool when one is idle, since that memory is live already, and
// otherwise makes a buffer of the next power of two at or above n keys,
// at least minRun and at most runLen, so a partial run costs the keys it
// holds and grows toward runLen as they arrive. Give a whole run back
// with PutRun once its contents are dead.
func GetRun[T any](runLen, n int) []T {
	if v := runPool[T](runLen).Get(); v != nil {
		h := v.(*[]T)
		run := *h
		*h = nil
		runPool[T](0).Put(h)
		return run
	}
	return make([]T, 0, min(max(minRun, 1<<bits.Len(uint(n-1))), runLen))
}

// PutRun gives a whole run back to the pool of runs of its capacity; a
// run of capacity 0, nil included, is a no-op. The caller must be its
// exclusive owner: nothing may read run afterwards.
func PutRun[T any](run []T) {
	if cap(run) == 0 {
		return
	}
	h, _ := runPool[T](0).Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = run[:0]
	runPool[T](cap(run)).Put(h)
}
