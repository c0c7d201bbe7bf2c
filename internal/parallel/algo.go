package parallel

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"opaq/internal/merge"
	"opaq/internal/simnet"
)

// This file holds the two global sample-merge methods of the paper's
// Section 3, run on the simulated machine (Run, GlobalMergeTime): real
// values move between the processors while the machine charges the
// messages and the Compute calls to its cost model. Everything is generic
// over cmp.Ordered.
//
// The words argument of Send/Exchange/AllGather is the message's payload
// size in the cost model's units (8-byte elements). Control metadata
// (block sizes, pad values) is charged as one word per message, matching
// the paper's convention of ignoring O(1) control traffic.

// globalMerge dispatches to the configured merge algorithm. local is this
// rank's sorted sample list; the return value is this rank's block of the
// globally sorted list.
func globalMerge[T cmp.Ordered](pr *simnet.Proc, algo MergeAlgo, local []T) ([]T, error) {
	switch algo {
	case BitonicMerge:
		return bitonicMerge(pr, local)
	case SampleMerge:
		return sampleMerge(pr, local)
	default:
		return nil, fmt.Errorf("parallel: unknown merge algorithm %d", int(algo))
	}
}

// blockMeta is the control metadata ranks agree on before a bitonic merge:
// each rank's block length and (when non-empty) its largest sample. It is
// charged as one cost-model word, like any O(1) control message.
type blockMeta[T cmp.Ordered] struct {
	n   int
	max T // valid iff n > 0
}

// bitonicMerge runs the bitonic sorting network over the p sorted blocks,
// one block per rank, with compare-exchange replaced by merge-split.
// Requires equal block sizes; blocks are padded to the global maximum
// length with copies of the globally largest sample, which sort to the tail
// of the global list and are trimmed by the caller (core.AssembleShards
// knows the exact expected sample count, and since pads equal the true
// maximum, trimming preserves the multiset even when real keys tie with the
// pad). Returns this rank's block of the globally sorted list.
func bitonicMerge[T cmp.Ordered](pr *simnet.Proc, local []T) ([]T, error) {
	p := pr.P()
	if p == 1 {
		return local, nil
	}
	// Agree on a common block size and pad value (ragged shards make sizes
	// differ; the pad must sort after every real sample).
	meta := blockMeta[T]{n: len(local)}
	if len(local) > 0 {
		meta.max = local[len(local)-1]
	}
	gathered, err := pr.AllGather(1, meta)
	if err != nil {
		return nil, err
	}
	blockLen := 0
	var pad T
	havePad := false
	for _, g := range gathered {
		bm := g.(blockMeta[T])
		if bm.n > blockLen {
			blockLen = bm.n
		}
		if bm.n > 0 && (!havePad || bm.max > pad) {
			pad, havePad = bm.max, true
		}
	}
	if blockLen == 0 {
		return local, nil
	}
	block := make([]T, blockLen)
	copy(block, local)
	for i := len(local); i < blockLen; i++ {
		block[i] = pad
	}
	id := pr.ID()
	// Bitonic sorting network on p keys, operating on blocks.
	for k := 2; k <= p; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			partner := id ^ j
			ascending := id&k == 0
			keepLow := (id < partner) == ascending
			got, err := pr.Exchange(partner, int64(blockLen), block)
			if err != nil {
				return nil, err
			}
			other := got.([]T)
			block = merge.Split(block, other, keepLow)
			// Merge-split cost: one pass over both blocks.
			pr.Compute(int64(2 * blockLen))
		}
	}
	return block, nil
}

// sampleMerge merges the p sorted lists by regular sampling (PSRS without
// the local sort): gather p regular samples per rank, derive p−1 splitters,
// partition each local list, all-to-all exchange, local k-way merge.
// Returns this rank's block of the globally sorted list (blocks are
// splitter-delimited, so sizes vary within the paper's bucket expansion
// bound β ≤ 3/2 in expectation).
func sampleMerge[T cmp.Ordered](pr *simnet.Proc, local []T) ([]T, error) {
	p := pr.P()
	if p == 1 {
		return local, nil
	}
	// Regular sample of p points from the local sorted list.
	probe := make([]T, 0, p)
	for i := 1; i <= p; i++ {
		idx := i*len(local)/p - 1
		if idx < 0 {
			idx = 0
		}
		if len(local) > 0 {
			probe = append(probe, local[idx])
		}
	}
	gathered, err := pr.AllGather(int64(len(probe)), probe)
	if err != nil {
		return nil, err
	}
	var allProbes []T
	for _, g := range gathered {
		allProbes = append(allProbes, g.([]T)...)
	}
	if len(allProbes) == 0 {
		// A rank only probes a non-empty list, so no probes at all means
		// every rank's sample list is empty (e.g. every run shorter than
		// one sub-run): nothing to merge.
		return local, nil
	}
	slices.Sort(allProbes)
	pr.Compute(int64(len(allProbes)) * int64(ceilLog2(len(allProbes)+1))) // splitter sort
	// p−1 splitters at regular positions.
	splitters := make([]T, 0, p-1)
	for i := 1; i < p; i++ {
		idx := i * len(allProbes) / p
		if idx >= len(allProbes) {
			idx = len(allProbes) - 1
		}
		splitters = append(splitters, allProbes[idx])
	}
	// Partition the local sorted list by splitters (binary search).
	cuts := make([]int, 0, p+1)
	cuts = append(cuts, 0)
	for _, sp := range splitters {
		cuts = append(cuts, sort.Search(len(local), func(i int) bool { return local[i] > sp }))
	}
	cuts = append(cuts, len(local))
	for i := 1; i < len(cuts); i++ {
		if cuts[i] < cuts[i-1] {
			cuts[i] = cuts[i-1]
		}
	}
	pr.Compute(int64(p) * int64(ceilLog2(len(local)+1)))
	// All-to-all: send partition j to rank j.
	id := pr.ID()
	pieces := make([][]T, p)
	pieces[id] = local[cuts[id]:cuts[id+1]]
	for off := 1; off < p; off++ {
		to := (id + off) % p
		part := local[cuts[to]:cuts[to+1]]
		if err := pr.Send(to, int64(len(part)), part); err != nil {
			return nil, err
		}
	}
	for off := 1; off < p; off++ {
		from := (id - off + p) % p
		got, err := pr.Recv(from)
		if err != nil {
			return nil, err
		}
		pieces[from] = got.([]T)
	}
	// Local k-way merge of the received sorted pieces.
	out := merge.KWay(pieces)
	pr.Compute(int64(len(out)) * int64(ceilLog2(p+1)))
	return out, nil
}

func ceilLog2(n int) int {
	l, v := 0, 1
	for v < n {
		v <<= 1
		l++
	}
	return l
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
