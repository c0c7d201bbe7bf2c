package core

import (
	"cmp"
	"fmt"
)

// MergeAll combines any number of summaries built with the same step into
// one that covers the union of their data — the merge-set reassembly an
// epoch-based serving engine performs on every snapshot rebuild, where the
// set of live epochs changes as old ones age out. It is equivalent to
// left-folding Merge over the slice (the sample multiset, counts and
// extrema are order-independent) but performs a single k-way merge of the
// sample lists, O(total·log k) instead of O(total·k).
//
// Nil and empty summaries are skipped. At least one summary must be
// non-nil so the result's step is defined; all-empty inputs yield the
// canonical empty summary.
func MergeAll[T cmp.Ordered](sums []*Summary[T]) (*Summary[T], error) {
	return mergeAll(sums, 1)
}

// mergeAll is MergeAll with the sample lists merged across workers (see
// mergeLists).
func mergeAll[T cmp.Ordered](sums []*Summary[T], workers int) (*Summary[T], error) {
	// The reference step comes from the first non-empty summary — empty
	// ones are skipped below, so they must not dictate compatibility. An
	// all-empty input falls back to the first non-nil summary's step for
	// the canonical empty result.
	var step int64 = -1
	for _, s := range sums {
		if s != nil && s.n > 0 {
			step = s.step
			break
		}
	}
	if step < 0 {
		for _, s := range sums {
			if s != nil {
				step = s.step
				break
			}
		}
	}
	if step < 0 {
		return nil, fmt.Errorf("%w: MergeAll needs at least one summary", ErrConfig)
	}
	lists := make([][]T, 0, len(sums))
	out := &Summary[T]{step: step}
	for _, s := range sums {
		if s == nil || s.n == 0 {
			continue
		}
		if s.step != step {
			return nil, fmt.Errorf("%w: step %d vs %d (same RunLen/SampleSize ratio required)",
				ErrIncompatible, s.step, step)
		}
		lists = append(lists, s.samples)
		if out.n == 0 {
			out.min, out.max = s.min, s.max
		} else {
			out.min, out.max = min(out.min, s.min), max(out.max, s.max)
		}
		out.runs += s.runs
		out.n += s.n
		out.leftover += s.leftover
	}
	if out.n == 0 {
		return emptySummary[T](step), nil
	}
	out.samples = mergeLists(lists, workers)
	return out, nil
}
