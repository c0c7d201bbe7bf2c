package core

import (
	"cmp"
	"sync"

	"opaq/internal/merge"
)

// parallelMergeFloor is the fan-in below which a merge across workers
// degrades to one sequential k-way merge: splitting a handful of lists
// across goroutines costs more in scheduling than the heap saves.
const parallelMergeFloor = 8

// MergeAllParallel is MergeAll fanned out across workers: the sample
// lists are split into contiguous ranges, each range is k-way merged
// concurrently, and the partials are merged into the final summary — a
// two-level merge tree whose leaves run in parallel (see mergeLists). The
// result is identical to MergeAll over the same slice, so callers may use
// whichever fits their core budget; the serving engine uses it to rebuild
// the frozen-prefix summary of a deep epoch ring cold, where the fan-in is
// the whole retained window.
//
// workers ≤ 1 (or a fan-in too small to split) is exactly MergeAll.
func MergeAllParallel[T cmp.Ordered](sums []*Summary[T], workers int) (*Summary[T], error) {
	return mergeAll(sums, workers)
}

// mergeLists merges sorted lists into a new list, ties going to the
// lower list index, so equal values keep the order of their lists. The
// result shares no memory with its inputs, and the summary that holds it
// owns it.
//
// Across workers, the lists are split into contiguous ranges, one per
// worker and at least two lists each; each range is merged on its own
// goroutine, and the partials are merged in range order. A tie between
// ranges goes to the lower one, whose lists come first, so the result is
// the same list at every worker count.
func mergeLists[T cmp.Ordered](lists [][]T, workers int) []T {
	k := min(workers, len(lists)/2)
	if k <= 1 || len(lists) < parallelMergeFloor {
		return merge.KWayInto(make([]T, 0, sampleCount(lists)), lists)
	}
	partials := make([][]T, k)
	var wg sync.WaitGroup
	for c := range k {
		// Contiguous even split; every range is non-empty because
		// k ≤ len(lists)/2.
		lo, hi := c*len(lists)/k, (c+1)*len(lists)/k
		wg.Add(1)
		go func() {
			defer wg.Done()
			partials[c] = merge.KWayInto(make([]T, 0, sampleCount(lists[lo:hi])), lists[lo:hi])
		}()
	}
	wg.Wait()
	return merge.KWayInto(make([]T, 0, sampleCount(partials)), partials)
}

// sampleCount returns the total length of lists.
func sampleCount[T any](lists [][]T) int {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	return total
}
