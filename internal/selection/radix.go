package selection

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
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
// Runs whose key type is, by kind, a 4- or 8-byte integer or a float —
// int32, int64, int, uint32, uint64, uint, uintptr, float32 and float64,
// and named types over them — are radix-selected (see radixSelect): an
// MSD radix sort that only descends into buckets holding a sample rank,
// which costs a few passes over the run instead of MultiSelect's
// ⌈log₂ s⌉+1 partition levels; a bucket that one key dominates, as a
// skewed run's popular keys do, is finished with a single three-way split
// around that key (see splitDominant). Integer keys are selected as they
// are, a signed run's top level laying its buckets out as if every sign
// bit were flipped; float keys are mapped to words in key order and back
// (see selectKeys). With a
// nil scratch, or one shorter than run, the selection runs in place. With
// a scratch at least as long as run, which the caller must be able to
// spare, its first two levels scatter out of place through the scratch
// instead (see radixScatter), which is faster; the scratch's contents are
// left unspecified. Such runs are ordered by their keys' bit patterns, so
// among equal floats −0 comes before +0, and each sample is the very
// element a full sort would put at its rank, on either path; such runs
// must not contain NaN. Every other key type, strings and 1- and 2-byte
// integers included, ignores the scratch and is multi-selected with an
// RNG seeded from seed, which only changes how the run is reordered: the
// samples are exact order statistics either way. Nothing is allocated but
// the sample list.
func SampleRun[T cmp.Ordered](run, scratch []T, step int, seed int64) ([]T, error) {
	if step <= 0 {
		return nil, fmt.Errorf("selection: SampleRun requires step > 0, got %d", step)
	}
	s := len(run) / step
	if s == 0 {
		return nil, nil
	}
	if radixSelectNumeric(run, scratch, step) {
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

// radixSelectNumeric radix-selects the sample ranks of run, through
// scratch when it is at least as long as run and in place otherwise, when
// T's kind is a 4- or 8-byte integer or a float, named types included, and
// reports whether it did. Other types, 1- and 2-byte integers among them,
// report false and are left untouched, as is scratch.
func radixSelectNumeric[T cmp.Ordered](run, scratch []T, step int) bool {
	var order keyOrder
	switch reflect.TypeFor[T]().Kind() {
	case reflect.Int, reflect.Int32, reflect.Int64:
		order = signedOrder
	case reflect.Uint, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		order = unsignedOrder
	case reflect.Float32, reflect.Float64:
		order = floatOrder
	default:
		return false
	}
	if unsafe.Sizeof(*new(T)) == 4 {
		selectKeys(keysOf[uint32](run), keysOf[uint32](scratch), order, step)
	} else {
		selectKeys(keysOf[uint64](run), keysOf[uint64](scratch), order, step)
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

// selectKeys radix-selects keys at ranks k·step−1, through scratch if it
// is at least as long as keys. Integer keys are selected as they are: for
// signed keys the top level lays its buckets out as if every sign bit were
// flipped, negative keys first (see topFlip), and the levels below read
// raw words, since keys that share a top digit share a sign and a sign's
// raw words are in key order. Float keys are mapped in place to unsigned
// words whose order is the keys' order, and mapped back afterwards. The
// map and its inverse are bijections on bit patterns, so the run ends up
// holding its own values.
func selectKeys[K radixKey](keys, scratch []K, order keyOrder, step int) {
	top := uint(bits.Len64(uint64(^K(0)))) - 1
	sign := K(1) << top
	var flip byte
	switch order {
	case signedOrder:
		flip = 0x80
	case floatOrder:
		for i, k := range keys {
			keys[i] = k ^ (-(k >> top) | sign)
		}
	}
	if len(scratch) >= len(keys) {
		radixScatter(keys, scratch[:len(keys)], step, flip)
	} else {
		radixSelect(keys, 0, step, flip)
	}
	if order == floatOrder {
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
// (American flag sort) but recurses into a bucket, splits it around a
// dominant key, or insertion-sorts a small one, only when the bucket
// holds a wanted rank (see descend); other buckets stay as the partition
// left them, already on the right side of every wanted rank. Each call
// starts at the top digit some key differs in (see topDigit), so it
// recurses at most once per byte of K, with at most one split pass per
// level. Words are ordered with flip XORed into their top byte: the top
// level lays its buckets out by digit XORed with flip (see flipLayout),
// and calls below it pass 0.
func radixSelect[K radixKey](keys []K, off, step int, flip byte) {
	if len(keys) <= radixCutoff {
		sortFlipped(keys, flip)
		return
	}
	shift, ok := topDigit(keys)
	if !ok {
		return
	}
	flip = topFlip[K](shift, flip)
	// next[d] is where the next key with digit d goes; end[d] closes
	// bucket d.
	var next, end [256]int
	countDigits(keys, shift, &next, &end)
	flipLayout(flip, &next, &end)
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
	if shift > 0 {
		inLayoutOrder(flip, &end)
		descend(keys, &end, off, step)
	}
}

// radixScatter is radixSelect over keys, a whole run, with its first two
// levels done out of place through scratch, which is as long as keys.
// Level 1 scatters keys into scratch by their top differing digit. Level 2
// scatters each bucket that holds a wanted rank back into keys by the
// bucket's own top differing digit, and copies every other bucket back as
// it is. A scatter writes each key straight to the next free slot of its
// bucket, so no write waits on the one before it as in the in-place cycle
// leader. Below level 2, buckets holding a wanted rank are selected in
// place, as radixSelect does. Level 1 lays its buckets out by digit XORed
// with flip if its digit is the top byte (see flipLayout).
func radixScatter[K radixKey](keys, scratch []K, step int, flip byte) {
	if len(keys) <= radixCutoff {
		sortFlipped(keys, flip)
		return
	}
	shift, ok := topDigit(keys)
	if !ok {
		return
	}
	flip = topFlip[K](shift, flip)
	var next, end [256]int
	countDigits(keys, shift, &next, &end)
	flipLayout(flip, &next, &end)
	scatter(scratch, keys, shift, &next)
	inLayoutOrder(flip, &end)
	r := step - 1 // the first wanted rank at or after lo
	lo := 0
	for _, hi := range end {
		if r < hi {
			scatterBack(keys[lo:hi], scratch[lo:hi], lo, step)
			for r < hi {
				r += step
			}
		} else {
			copy(keys[lo:hi], scratch[lo:hi])
		}
		lo = hi
	}
}

// scatterBack is level 2 of radixScatter: it fills dst, a bucket of the
// run starting at offset off, from src, the same bucket in the scratch,
// scattering by src's top differing digit and then selecting in place
// each of dst's buckets that holds a wanted rank. A bucket too small to
// count, or all-equal, is copied back as it is and insertion-sorted if
// small.
func scatterBack[K radixKey](dst, src []K, off, step int) {
	shift, ok := uint(0), false
	if len(src) > radixCutoff {
		shift, ok = topDigit(src)
	}
	if !ok {
		copy(dst, src)
		insertionSort(dst)
		return
	}
	var next, end [256]int
	countDigits(src, shift, &next, &end)
	scatter(dst, src, shift, &next)
	if shift > 0 {
		descend(dst, &end, off, step)
	}
}

// topDigit returns the shift of the most significant 8-bit digit in which
// some key differs from keys[0], or false if every key is equal. It ORs
// together every key's XOR with the first one, which both detects an
// all-equal bucket and skips the leading digits no key differs in. The
// shift is a multiple of 8 below 64, and the mask says so, which spares
// each shift of a 64-bit word by it the guard for counts past its width.
func topDigit[K radixKey](keys []K) (uint, bool) {
	var diff K
	for _, k := range keys[1:] {
		diff |= k ^ keys[0]
	}
	return uint(bits.Len64(uint64(diff))-1) & 0x38, diff != 0
}

// topFlip returns flip for a level whose digit at shift is the top byte
// of K, and 0 for any lower digit. A signed key's order is its word's with
// the sign bit flipped, so with flip 0x80 the top level lays out the
// buckets of digits 0x80–0xff, the negative keys, before those of
// 0x00–0x7f. Keys that differ first below the top byte share it, sign bit
// included, so their raw words are in key order.
func topFlip[K radixKey](shift uint, flip byte) byte {
	if shift+8 < uint(unsafe.Sizeof(K(0)))*8 {
		return 0
	}
	return flip
}

// sortFlipped insertion-sorts keys by their words with flip XORed into
// the top byte.
func sortFlipped[K radixKey](keys []K, flip byte) {
	mask := K(flip) << (unsafe.Sizeof(K(0))*8 - 8)
	for i := 1; i < len(keys); i++ {
		v, j := keys[i], i
		for ; j > 0 && v^mask < keys[j-1]^mask; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = v
	}
}

// countDigits sets end[d] to where the bucket of keys whose digit at shift
// is d ends, and next[d] to where it starts.
func countDigits[K radixKey](keys []K, shift uint, next, end *[256]int) {
	shift &= 0x38 // see topDigit
	for _, k := range keys {
		end[byte(k>>shift)]++
	}
	sum := 0
	for d, c := range end {
		next[d] = sum
		sum += c
		end[d] = sum
	}
}

// flipLayout lays the buckets next and end bound out again, still indexed
// by digit, in the order of their digits XORed with flip: with flip 0x80,
// the buckets of digits 0x80–0xff come first. It costs one pass over the
// 256 buckets and none over the keys, and with flip 0, below the top
// level, it does nothing, so the levels that run most often, on the
// smallest buckets, pay nothing for signed keys.
func flipLayout(flip byte, next, end *[256]int) {
	if flip == 0 {
		return
	}
	sum := 0
	for b := range end {
		d := byte(b) ^ flip
		c := end[d] - next[d]
		next[d] = sum
		sum += c
		end[d] = sum
	}
}

// inLayoutOrder reorders end, the bucket ends indexed by digit, into the
// order the buckets lie in, by digit XORed with flip, as descend and
// radixScatter walk them. With flip 0 it does nothing.
func inLayoutOrder(flip byte, end *[256]int) {
	if flip == 0 {
		return
	}
	for b := range end {
		if d := byte(b) ^ flip; byte(b) < d {
			end[b], end[d] = end[d], end[b]
		}
	}
}

// scatter copies src into dst, each key to the next free slot next holds
// for its digit at shift, keeping the order of a digit's keys. It moves
// two keys a step: both digits, then both slots, then both stores, with
// the second slot one further when the digits are equal, so a run of
// equal digits takes one counter update per two keys instead of a chain
// of one per key.
func scatter[K radixKey](dst, src []K, shift uint, next *[256]int) {
	dst = dst[:len(src)]
	shift &= 0x38 // see topDigit
	i := 0
	for ; i+1 < len(src); i += 2 {
		k0, k1 := src[i], src[i+1]
		d0, d1 := byte(k0>>shift), byte(k1>>shift)
		j0, j1 := next[d0], next[d1]
		if d0 == d1 {
			j1++
		}
		next[d0] = j0 + 1
		next[d1] = j1 + 1
		dst[j0] = k0
		dst[j1] = k1
	}
	if i < len(src) {
		d := byte(src[i] >> shift)
		dst[next[d]] = src[i]
		next[d]++
	}
}

// descend finishes the selection below one level: end closes the level's
// buckets of keys, which start at offset off of their run, and each bucket
// holding a wanted rank is split around a dominant key (see splitDominant)
// or radix-selected, or insertion-sorted if small. Other buckets already
// lie on the right side of every wanted rank.
func descend[K radixKey](keys []K, end *[256]int, off, step int) {
	// r is the first wanted rank at or after the current bucket's start,
	// relative to keys: the rank that ends the sub-run the start lies in.
	r := (off/step+1)*step - 1 - off
	lo := 0
	for _, hi := range end {
		if r < hi {
			if n := hi - lo; n > radixCutoff {
				if !splitDominant(keys[lo:hi], off+lo, step) {
					radixSelect(keys[lo:hi], off+lo, step, 0)
				}
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

// splitDominant finishes a bucket of more than radixCutoff keys, which
// starts at offset off of its run, in one three-way pass when a single
// key looks dominant, and reports whether it did. It probes the bucket's
// first, middle and last keys; if two are equal, it partitions the bucket
// into the keys below that word, its copies and the keys above it, and
// radix-selects each side that holds a wanted rank. The copies need no
// further work, and every key of a side shares the digit that formed the
// bucket, so the side's selection starts at a lower digit. A skewed run's
// most popular keys fill buckets that would otherwise pay one more radix
// level and an all-equal check; a false positive, such as three equal
// probes among otherwise distinct keys, costs the one partition pass.
// Float words are compared after the key-order map, so −0 and +0 never
// share a block; signed words are compared raw, since a bucket below the
// top level holds keys of one sign.
func splitDominant[K radixKey](keys []K, off, step int) bool {
	mid, last := len(keys)/2, len(keys)-1
	var p int
	switch {
	case keys[0] == keys[mid] || keys[0] == keys[last]:
		p = 0
	case keys[mid] == keys[last]:
		p = mid
	default:
		return false
	}
	lt, gt := partition3(keys, 0, len(keys), p)
	if holdsRank(off, lt, step) {
		radixSelect(keys[:lt], off, step, 0)
	}
	if holdsRank(off+gt, len(keys)-gt, step) {
		radixSelect(keys[gt:], off+gt, step, 0)
	}
	return true
}

// holdsRank reports whether the n run positions from off on hold a wanted
// rank k·step−1.
func holdsRank(off, n, step int) bool {
	return (off/step+1)*step-1 < off+n
}
