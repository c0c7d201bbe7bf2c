// Package merge provides k-way merging of sorted sequences.
//
// OPAQ's sample phase produces one sorted sample list per run; the r lists
// (and, in the parallel formulation, the p per-processor lists) are merged
// into a single sorted sample list of size r·s. The paper charges this step
// O(r·s·log r) (Table 2), which is exactly the cost of the tournament-heap
// merge implemented here.
package merge

import (
	"cmp"
	"slices"
)

// KWay merges the sorted slices in lists into a single sorted slice using a
// binary tournament heap: O(N log k) comparisons for N total elements across
// k lists. Input slices are not modified. Ties are broken by list index, so
// the merge is stable across lists.
func KWay[T cmp.Ordered](lists [][]T) []T {
	return KWayInto(nil, lists)
}

// KWayInto is KWay appending into dst, so a caller that recycles merge
// buffers (sync.Pool or an arena) avoids the per-merge output allocation.
// dst is grown once up-front; the merged elements never alias the inputs,
// even in the single-list fast path, which copies. Two non-empty lists
// skip the heap and merge in one loop (see Two), with the same ties.
func KWayInto[T cmp.Ordered](dst []T, lists [][]T) []T {
	total := 0
	var first, second []T // the first two non-empty lists
	nonEmpty := 0
	for _, l := range lists {
		total += len(l)
		if len(l) > 0 {
			nonEmpty++
			if first == nil {
				first = l
			} else if second == nil {
				second = l
			}
		}
	}
	dst = slices.Grow(dst, total)
	switch nonEmpty {
	case 0:
		return dst
	case 1:
		return append(dst, first...)
	case 2:
		return Two(dst, first, second)
	}
	lt := newMergeHeap(lists)
	for {
		v, ok := lt.pop()
		if !ok {
			return dst
		}
		dst = append(dst, v)
	}
}

// IsSorted reports whether xs is in non-decreasing order.
func IsSorted[T cmp.Ordered](xs []T) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

// Split merges two sorted blocks of equal length and returns the low or
// high half — the merge-split primitive that replaces compare-exchange when
// a bitonic sorting network operates on blocks instead of scalars (paper,
// Section 3.1; the parallel formulation's bitonic global merge). Both
// halves of a merge-split are recovered by calling Split twice, once with
// each keepLow value; inputs are not modified.
func Split[T cmp.Ordered](a, b []T, keepLow bool) []T {
	n := len(a)
	out := make([]T, n)
	if keepLow {
		i, j := 0, 0
		for k := 0; k < n; k++ {
			if j >= len(b) || (i < len(a) && a[i] <= b[j]) {
				out[k] = a[i]
				i++
			} else {
				out[k] = b[j]
				j++
			}
		}
		return out
	}
	i, j := len(a)-1, len(b)-1
	for k := n - 1; k >= 0; k-- {
		if j < 0 || (i >= 0 && a[i] > b[j]) {
			out[k] = a[i]
			i--
		} else {
			out[k] = b[j]
			j--
		}
	}
	return out
}

// Two appends the merge of the sorted slices a and b to dst and returns
// the extended slice, growing dst at most once. Ties go to a, as KWay
// breaks them by list index. It is KWayInto's two-list case and
// core.Merge's kernel.
func Two[T cmp.Ordered](dst, a, b []T) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(a)+len(b))[:n+len(a)+len(b)]
	out := dst[n:]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
	return dst
}

// mergeHeap is a binary min-heap of list cursors keyed by each list's current
// head element, with ties broken by list index so the merge is stable
// across lists. pop returns the next smallest element in O(log k).
type mergeHeap[T cmp.Ordered] struct {
	lists  [][]T
	cursor []int // next unread position in each list
	heap   []int // list indices, heap-ordered by current head
}

func newMergeHeap[T cmp.Ordered](lists [][]T) *mergeHeap[T] {
	lt := &mergeHeap[T]{
		lists:  lists,
		cursor: make([]int, len(lists)),
	}
	for i, l := range lists {
		if len(l) > 0 {
			lt.heap = append(lt.heap, i)
		}
	}
	for i := len(lt.heap)/2 - 1; i >= 0; i-- {
		lt.siftDown(i)
	}
	return lt
}

// less orders heap positions i, j by the current head of their lists.
func (lt *mergeHeap[T]) less(i, j int) bool {
	a, b := lt.heap[i], lt.heap[j]
	av, bv := lt.lists[a][lt.cursor[a]], lt.lists[b][lt.cursor[b]]
	if av != bv {
		return av < bv
	}
	return a < b
}

func (lt *mergeHeap[T]) siftDown(i int) {
	n := len(lt.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && lt.less(l, smallest) {
			smallest = l
		}
		if r < n && lt.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		lt.heap[i], lt.heap[smallest] = lt.heap[smallest], lt.heap[i]
		i = smallest
	}
}

// pop removes and returns the smallest remaining element.
func (lt *mergeHeap[T]) pop() (T, bool) {
	var zero T
	if len(lt.heap) == 0 {
		return zero, false
	}
	w := lt.heap[0]
	v := lt.lists[w][lt.cursor[w]]
	lt.cursor[w]++
	if lt.cursor[w] >= len(lt.lists[w]) {
		last := len(lt.heap) - 1
		lt.heap[0] = lt.heap[last]
		lt.heap = lt.heap[:last]
	}
	if len(lt.heap) > 0 {
		lt.siftDown(0)
	}
	return v, true
}
