package selection

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"unsafe"
)

// SampleRun returns the regular samples of run that are step elements
// apart: the elements of 0-based rank k·step−1 for k = 1 … ⌊len(run)/step⌋,
// in ascending order. This is the per-run work of the sample phase
// (Section 2.1 of the paper). A run shorter than step yields no samples
// and is left untouched; any other run is reordered in place.
//
// Runs of int32, uint32, int64, uint64, float32 and float64 are sorted by
// an in-place MSD radix sort (see radixSort), which costs a few passes
// over the run instead of MultiSelect's ⌈log₂ s⌉+1 partition levels and
// needs no scratch buffer; such a run is left fully sorted. Floats are
// ordered by their IEEE-754 bit patterns, so −0 sorts before +0; such
// runs must not contain NaN. Every other key type, strings included, is
// multi-selected with an RNG seeded from seed, which only changes how the
// run is reordered: the samples are exact order statistics either way.
func SampleRun[T cmp.Ordered](run []T, step int, seed int64) ([]T, error) {
	if step <= 0 {
		return nil, fmt.Errorf("selection: SampleRun requires step > 0, got %d", step)
	}
	s := len(run) / step
	if s == 0 {
		return nil, nil
	}
	if radixSortNumeric(run) {
		out := make([]T, s)
		for k := range out {
			out[k] = run[(k+1)*step-1]
		}
		return out, nil
	}
	ranks := make([]int, s)
	for k := range ranks {
		ranks[k] = (k+1)*step - 1
	}
	return MultiSelect(run, ranks, rand.New(rand.NewSource(seed)))
}

// keyOrder says how a fixed-width key's bit pattern maps to its order.
type keyOrder int

const (
	unsignedOrder keyOrder = iota // bit pattern order is value order
	signedOrder                   // two's complement: flip the sign bit
	floatOrder                    // IEEE-754: flip all bits of negatives, the sign bit of the rest
)

// radixSortNumeric sorts run in place when T is one of the six fixed-width
// numeric key types and reports whether it did. Other types, including
// named types over the same kinds, report false and are left untouched.
func radixSortNumeric[T cmp.Ordered](run []T) bool {
	switch xs := any(run).(type) {
	case []int32:
		sortKeys(keysOf[uint32](xs), signedOrder)
	case []uint32:
		sortKeys(xs, unsignedOrder)
	case []float32:
		sortKeys(keysOf[uint32](xs), floatOrder)
	case []int64:
		sortKeys(keysOf[uint64](xs), signedOrder)
	case []uint64:
		sortKeys(xs, unsignedOrder)
	case []float64:
		sortKeys(keysOf[uint64](xs), floatOrder)
	default:
		return false
	}
	return true
}

// radixKey is an unsigned word a fixed-width key is sorted as.
type radixKey interface{ ~uint32 | ~uint64 }

// keysOf reinterprets xs, whose elements are as wide as K, as a slice of
// K over the same memory, so the sort can reorder the run itself.
func keysOf[K radixKey, T any](xs []T) []K {
	return unsafe.Slice((*K)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs))
}

// sortKeys maps keys in place to unsigned words whose order is the keys'
// order, radix-sorts the words and maps them back. Both maps are
// bijections on bit patterns, so the run ends up holding its own values.
func sortKeys[K radixKey](keys []K, order keyOrder) {
	top := uint(bits.Len64(uint64(^K(0)))) - 1
	sign := K(1) << top
	switch order {
	case signedOrder:
		for i := range keys {
			keys[i] ^= sign
		}
	case floatOrder:
		for i, k := range keys {
			keys[i] = k ^ (-(k >> top) | sign)
		}
	}
	radixSort(keys)
	switch order {
	case signedOrder:
		for i := range keys {
			keys[i] ^= sign
		}
	case floatOrder:
		for i, k := range keys {
			keys[i] = k ^ (-(^k >> top) | sign)
		}
	}
}

// radixCutoff is the bucket size at or below which radixSort hands over
// to insertion sort: a 256-way counting pass costs more than sorting a
// few dozen words directly.
const radixCutoff = 48

// radixSort sorts keys ascending in place with an MSD radix sort over
// 8-bit digits, permuting each level in place (American flag sort). Each
// call first ORs together every key's XOR with the first one, which both
// detects an all-equal bucket and skips the leading digits no key differs
// in, so it recurses at most once per byte of K.
func radixSort[K radixKey](keys []K) {
	if len(keys) <= radixCutoff {
		insertionSort(keys)
		return
	}
	var diff K
	for _, k := range keys[1:] {
		diff |= k ^ keys[0]
	}
	if diff == 0 {
		return
	}
	shift := uint(bits.Len64(uint64(diff))-1) &^ 7

	// next[d] is where the next key with digit d goes; end[d] closes
	// bucket d.
	var next, end [256]int
	for _, k := range keys {
		end[byte(k>>shift)]++
	}
	sum := 0
	for d, c := range end {
		next[d] = sum
		sum += c
		end[d] = sum
	}
	// Cycle leader: carry each misplaced key to the next free slot of its
	// bucket, pick up the key found there, and go on until one belongs in
	// the slot the cycle started from.
	for d := range next {
		for i := next[d]; i < end[d]; i = next[d] {
			k := keys[i]
			for e := byte(k >> shift); int(e) != d; e = byte(k >> shift) {
				j := next[e]
				next[e]++
				keys[j], k = k, keys[j]
			}
			keys[i] = k
			next[d]++
		}
	}
	if shift == 0 {
		return
	}
	lo := 0
	for _, hi := range end {
		if n := hi - lo; n > radixCutoff {
			radixSort(keys[lo:hi])
		} else if n > 1 {
			insertionSort(keys[lo:hi])
		}
		lo = hi
	}
}
