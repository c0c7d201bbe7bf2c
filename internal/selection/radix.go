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
// and is left untouched; any other run is reordered in place and left
// partitioned around every sample rank, as MultiSelect leaves it: no
// element before a sample's rank is larger than the sample, and none after
// it is smaller. The run is not sorted.
//
// Runs of int32, uint32, int64, uint64, float32 and float64 are
// radix-selected in place (see radixSelect): an MSD radix sort that only
// descends into buckets holding a sample rank, which costs a few passes
// over the run instead of MultiSelect's ⌈log₂ s⌉+1 partition levels and
// needs no scratch buffer. Such runs are ordered by their keys' bit
// patterns, so among equal floats −0 comes before +0, and each sample is
// the very element a full sort would put at its rank; such runs must not
// contain NaN. Every other key type, strings included, is multi-selected
// with an RNG seeded from seed, which only changes how the run is
// reordered: the samples are exact order statistics either way.
func SampleRun[T cmp.Ordered](run []T, step int, seed int64) ([]T, error) {
	if step <= 0 {
		return nil, fmt.Errorf("selection: SampleRun requires step > 0, got %d", step)
	}
	s := len(run) / step
	if s == 0 {
		return nil, nil
	}
	if radixSelectNumeric(run, step) {
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

// radixSelectNumeric radix-selects the sample ranks of run in place when
// T is one of the six fixed-width numeric key types and reports whether it
// did. Other types, including named types over the same kinds, report
// false and are left untouched.
func radixSelectNumeric[T cmp.Ordered](run []T, step int) bool {
	switch xs := any(run).(type) {
	case []int32:
		selectKeys(keysOf[uint32](xs), signedOrder, step)
	case []uint32:
		selectKeys(xs, unsignedOrder, step)
	case []float32:
		selectKeys(keysOf[uint32](xs), floatOrder, step)
	case []int64:
		selectKeys(keysOf[uint64](xs), signedOrder, step)
	case []uint64:
		selectKeys(xs, unsignedOrder, step)
	case []float64:
		selectKeys(keysOf[uint64](xs), floatOrder, step)
	default:
		return false
	}
	return true
}

// radixKey is an unsigned word a fixed-width key is sorted as.
type radixKey interface{ ~uint32 | ~uint64 }

// keysOf reinterprets xs, whose elements are as wide as K, as a slice of
// K over the same memory, so the selection can reorder the run itself.
func keysOf[K radixKey, T any](xs []T) []K {
	return unsafe.Slice((*K)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs))
}

// selectKeys maps keys in place to unsigned words whose order is the keys'
// order, radix-selects the words at ranks k·step−1 and maps them back.
// Both maps are bijections on bit patterns, so the run ends up holding its
// own values.
func selectKeys[K radixKey](keys []K, order keyOrder, step int) {
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
	radixSelect(keys, 0, step)
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

// radixCutoff is the bucket size at or below which radixSelect hands over
// to insertion sort: a 256-way counting pass costs more than sorting a
// few dozen words directly.
const radixCutoff = 48

// radixSelect reorders keys, which start at offset off of their run, in
// place so that every run rank k·step−1 they cover holds the word an
// ascending sort would put there, with keys partitioned around it. It is
// an MSD radix sort over 8-bit digits that permutes each level in place
// (American flag sort) but recurses into a bucket, or insertion-sorts a
// small one, only when the bucket holds a wanted rank; other buckets stay
// as the partition left them, already on the right side of every wanted
// rank. Each call first ORs together every key's XOR with the first one,
// which both detects an all-equal bucket and skips the leading digits no
// key differs in, so it recurses at most once per byte of K.
func radixSelect[K radixKey](keys []K, off, step int) {
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
	// r is the first wanted rank at or after the current bucket's start,
	// relative to keys: the rank that ends the sub-run the start lies in.
	r := (off/step+1)*step - 1 - off
	lo := 0
	for _, hi := range end {
		if r < hi {
			if n := hi - lo; n > radixCutoff {
				radixSelect(keys[lo:hi], off+lo, step)
			} else if n > 1 {
				insertionSort(keys[lo:hi])
			}
			for r < hi {
				r += step
			}
		}
		lo = hi
	}
}
