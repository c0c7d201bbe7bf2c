package selection

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// referenceSample is the sample phase SampleRun replaces: RegularSample
// when step divides the run, MultiSelect at ranks k·step−1 otherwise, on
// a copy of run.
func referenceSample[T cmp.Ordered](t testing.TB, run []T, step int) []T {
	t.Helper()
	cp := slices.Clone(run)
	s := len(cp) / step
	if s == 0 {
		return nil
	}
	if len(cp)%step == 0 {
		out, err := RegularSample(cp, s, testRNG())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ranks := make([]int, s)
	for k := range ranks {
		ranks[k] = (k+1)*step - 1
	}
	out, err := MultiSelect(cp, ranks, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkSampleRun runs SampleRun on copies of run along both kernel
// paths, in place (no scratch) and scattering through a run-sized
// scratch, and checks each against referenceSample: equal values (==); the
// run left a permutation of its input, by bit pattern; each sample's bits
// equal to the run's element at its rank; and the run partitioned around
// every sample rank in (value, bit pattern) order, which puts −0 before +0
// (the larger bit pattern first among equal values). Over a permutation,
// that partition pins each sample to the bit pattern a full sort puts at
// its rank.
func checkSampleRun[T cmp.Ordered](t *testing.T, name string, run []T, step int, bits func(T) uint64) {
	t.Helper()
	checkSampleRunPath(t, name+"/in-place", run, nil, step, bits)
	checkSampleRunPath(t, name+"/scatter", run, make([]T, len(run)), step, bits)
}

func checkSampleRunPath[T cmp.Ordered](t *testing.T, name string, run, scratch []T, step int, bits func(T) uint64) {
	t.Helper()
	got := slices.Clone(run)
	samples, err := SampleRun(got, scratch, step, 1)
	if err != nil {
		t.Fatalf("%s: SampleRun: %v", name, err)
	}
	want := referenceSample(t, run, step)
	if len(samples) != len(want) {
		t.Fatalf("%s: %d samples, want %d", name, len(samples), len(want))
	}
	for k := range want {
		if samples[k] != want[k] {
			t.Fatalf("%s: sample %d = %v, want %v", name, k, samples[k], want[k])
		}
	}
	bitsOf := func(xs []T) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = bits(x)
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(bitsOf(got), bitsOf(run)) {
		t.Fatalf("%s: SampleRun changed the run's multiset", name)
	}
	less := func(a, b T) bool { return a < b || (a == b && bits(a) > bits(b)) }
	for k, v := range samples {
		r := (k+1)*step - 1
		if bits(v) != bits(got[r]) {
			t.Fatalf("%s: sample %d is not the run's element %d", name, k, r)
		}
		if k > 0 && less(v, samples[k-1]) {
			t.Fatalf("%s: sample %d (%v, %#x) below sample %d (%v, %#x)",
				name, k, v, bits(v), k-1, samples[k-1], bits(samples[k-1]))
		}
	}
	// Each element lies between the samples at the ranks enclosing its
	// position: the last rank at or before it and the first at or after.
	for i, v := range got {
		if k := (i+1)/step - 1; k >= 0 && less(v, samples[k]) {
			t.Fatalf("%s: element %d (%v, %#x) below sample %d (%v, %#x)",
				name, i, v, bits(v), k, samples[k], bits(samples[k]))
		}
		if k := (i+step)/step - 1; k < len(samples) && less(samples[k], v) {
			t.Fatalf("%s: element %d (%v, %#x) above sample %d (%v, %#x)",
				name, i, v, bits(v), k, samples[k], bits(samples[k]))
		}
	}
}

// keyType builds values of one numeric key type: from raw 64-bit words
// (truncated to the type's width; NaN patterns become 0) and from small
// integers.
type keyType[T cmp.Ordered] struct {
	fromBits  func(uint64) T
	fromSmall func(int) T
	bits      func(T) uint64
	extremes  []T
}

var (
	int32Keys = keyType[int32]{
		fromBits:  func(u uint64) int32 { return int32(u) },
		fromSmall: func(i int) int32 { return int32(i) },
		bits:      func(v int32) uint64 { return uint64(uint32(v)) },
		extremes:  []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32},
	}
	uint32Keys = keyType[uint32]{
		fromBits:  func(u uint64) uint32 { return uint32(u) },
		fromSmall: func(i int) uint32 { return uint32(i) },
		bits:      func(v uint32) uint64 { return uint64(v) },
		extremes:  []uint32{0, 1, 1 << 31, 1<<31 - 1, math.MaxUint32 - 1, math.MaxUint32},
	}
	int64Keys = keyType[int64]{
		fromBits:  func(u uint64) int64 { return int64(u) },
		fromSmall: func(i int) int64 { return int64(i) },
		bits:      func(v int64) uint64 { return uint64(v) },
		extremes:  []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64},
	}
	intKeys = keyType[int]{
		fromBits:  func(u uint64) int { return int(u) },
		fromSmall: func(i int) int { return i },
		bits:      func(v int) uint64 { return uint64(v) },
		extremes:  []int{math.MinInt, math.MinInt + 1, -1, 0, 1, math.MaxInt - 1, math.MaxInt},
	}
	uint64Keys = keyType[uint64]{
		fromBits:  func(u uint64) uint64 { return u },
		fromSmall: func(i int) uint64 { return uint64(i) },
		bits:      func(v uint64) uint64 { return v },
		extremes:  []uint64{0, 1, 1 << 63, 1<<63 - 1, math.MaxUint64 - 1, math.MaxUint64},
	}
	float32Keys = keyType[float32]{
		fromBits: func(u uint64) float32 {
			if f := math.Float32frombits(uint32(u)); f == f {
				return f
			}
			return 0
		},
		fromSmall: func(i int) float32 { return float32(i) / 4 },
		bits:      func(v float32) uint64 { return uint64(math.Float32bits(v)) },
		extremes: []float32{
			float32(math.Inf(-1)), -math.MaxFloat32, -1, -math.SmallestNonzeroFloat32,
			float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32,
			math.Float32frombits(0x007fffff), // largest subnormal
			0x1p-126,                         // smallest normal
			1, math.MaxFloat32, float32(math.Inf(1)),
		},
	}
	float64Keys = keyType[float64]{
		fromBits: func(u uint64) float64 {
			if f := math.Float64frombits(u); f == f {
				return f
			}
			return 0
		},
		fromSmall: func(i int) float64 { return float64(i) / 4 },
		bits:      math.Float64bits,
		extremes: []float64{
			math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
			math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
			math.Float64frombits(0x000fffffffffffff), // largest subnormal
			0x1p-1022,                                // smallest normal
			1, math.MaxFloat64, math.Inf(1),
		},
	}
)

// TestSampleRunMatchesRegularSample checks, for all six radix-selected key
// types, that SampleRun selects the same values as RegularSample on
// random, duplicate-heavy, all-equal, sorted, reverse-sorted and ragged
// runs, on runs dominated by one key, on runs of +0 and −0, and on runs
// sized around the insertion-sort cutoff.
func TestSampleRunMatchesRegularSample(t *testing.T) {
	t.Run("int32", func(t *testing.T) { checkSampleRunCases(t, int32Keys) })
	t.Run("uint32", func(t *testing.T) { checkSampleRunCases(t, uint32Keys) })
	t.Run("int64", func(t *testing.T) { checkSampleRunCases(t, int64Keys) })
	t.Run("uint64", func(t *testing.T) { checkSampleRunCases(t, uint64Keys) })
	t.Run("float32", func(t *testing.T) { checkSampleRunCases(t, float32Keys) })
	t.Run("float64", func(t *testing.T) { checkSampleRunCases(t, float64Keys) })
}

func checkSampleRunCases[T cmp.Ordered](t *testing.T, kt keyType[T]) {
	rng := testRNG()
	width := 8 * int(unsafe.Sizeof(*new(T)))
	random := func(n int) []T {
		xs := make([]T, n)
		for i := range xs {
			xs[i] = kt.fromBits(rng.Uint64())
		}
		return xs
	}
	small := func(n, span int) []T {
		xs := make([]T, n)
		for i := range xs {
			xs[i] = kt.fromSmall(rng.Intn(span) - span/2)
		}
		return xs
	}
	// hot overwrites a share of random(n) with one key.
	hot := func(n int, share float64, key T) []T {
		xs := random(n)
		for i := range xs {
			if rng.Float64() < share {
				xs[i] = key
			}
		}
		return xs
	}
	sorted := slices.Sorted(slices.Values(random(3000)))
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	cases := map[string][]T{
		"random":     random(5000),
		"narrow":     small(5000, 1000), // constant leading bytes
		"duplicates": small(5000, 8),
		"all-equal":  small(3000, 1),
		"sorted":     sorted,
		"reverse":    reversed,
		"ragged":     random(1037),
		"one":        random(1),
		// One key fills most of the run, as the most popular keys fill
		// their buckets in a skewed run: at the smallest word, so the
		// split leaves no keys below it, at a middle word, and at the
		// largest word, so none lie above it.
		"hot60-min": hot(5000, 0.6, kt.extremes[0]),
		"hot99-min": hot(5000, 0.99, kt.extremes[0]),
		"hot60-mid": hot(5000, 0.6, sorted[len(sorted)/2]),
		"hot99-mid": hot(5000, 0.99, sorted[len(sorted)/2]),
		"hot60-max": hot(5000, 0.6, kt.extremes[len(kt.extremes)-1]),
		"hot99-max": hot(5000, 0.99, kt.extremes[len(kt.extremes)-1]),
		// +0 with scattered −0, and the reverse (for integers, 0 and the
		// word with only the top bit set).
		"zeros-neg": slices.Repeat([]T{kt.fromBits(0)}, 5000),
		"neg-zeros": slices.Repeat([]T{kt.fromBits(1 << (width - 1))}, 5000),
	}
	for i, zero := range cases["zeros-neg"] {
		if rng.Intn(10) == 0 {
			cases["zeros-neg"][i], cases["neg-zeros"][i] = kt.fromBits(1<<(width-1)), zero
		}
	}
	// A hot key that dominates only below two levels: a quarter of the
	// run are its copies, and 60 % more keys share its top 16 bits, so
	// the buckets it lies in are mostly distinct keys until its third
	// digit sets it apart.
	hw := kt.bits(sorted[len(sorted)/3])
	low := uint64(1)<<(width-16) - 1
	shared := random(5000)
	for i := range shared {
		switch u := rng.Float64(); {
		case u < 0.25:
			shared[i] = kt.fromBits(hw)
		case u < 0.85:
			shared[i] = kt.fromBits(hw&^low | rng.Uint64()&low)
		}
	}
	cases["hot-below-16-bits"] = shared
	for _, n := range []int{radixCutoff - 1, radixCutoff, radixCutoff + 1, 2 * radixCutoff, 2*radixCutoff + 1} {
		cases[fmt.Sprintf("len%d", n)] = random(n)
		// 256·n keys over 2¹⁶ values: below the top digit, buckets of
		// about n keys, on either side of the cutoff.
		cases[fmt.Sprintf("buckets%d", n)] = small(256*n, 1<<16)
	}
	for name, run := range cases {
		for _, step := range []int{1, 3, 64, len(run)} {
			checkSampleRun(t, fmt.Sprintf("%s/step=%d", name, step), run, step, kt.bits)
		}
	}
}

// TestSampleRunExtremes runs SampleRun over runs drawn from each type's
// extreme values: the integer limits, 0 and ±1; for floats ±Inf, ±MaxFloat,
// subnormals, the smallest normal and mixed ±0. Beyond the values matching
// RegularSample's, the run must be left partitioned around every sample
// rank with −0 before +0, bit for bit.
func TestSampleRunExtremes(t *testing.T) {
	t.Run("int32", func(t *testing.T) { checkSampleRunExtremes(t, int32Keys) })
	t.Run("uint32", func(t *testing.T) { checkSampleRunExtremes(t, uint32Keys) })
	t.Run("int64", func(t *testing.T) { checkSampleRunExtremes(t, int64Keys) })
	t.Run("uint64", func(t *testing.T) { checkSampleRunExtremes(t, uint64Keys) })
	t.Run("float32", func(t *testing.T) { checkSampleRunExtremes(t, float32Keys) })
	t.Run("float64", func(t *testing.T) { checkSampleRunExtremes(t, float64Keys) })
}

func checkSampleRunExtremes[T cmp.Ordered](t *testing.T, kt keyType[T]) {
	rng := testRNG()
	for _, n := range []int{len(kt.extremes), radixCutoff + 1, 600} {
		run := make([]T, n)
		for i := range run {
			run[i] = kt.extremes[rng.Intn(len(kt.extremes))]
		}
		for _, step := range []int{1, 5} {
			checkSampleRun(t, fmt.Sprintf("n=%d/step=%d", n, step), run, step, kt.bits)
		}
	}
}

// TestSampleRunTopDigitOrder covers every place where a signed key's top
// digit decides its order: integer keys are selected as they are, and only
// the top level reads the top digit with the sign bit flipped, on both
// kernel paths. Keys of both signs over the whole domain need the flip;
// all-negative and all-positive keys that share their top byte start
// below it, where no flip may apply; runs of 2 to radixCutoff keys of
// both signs are insertion-sorted by flipped word; keys that differ only
// in the low byte, all-equal runs and Zipf-heavy runs over the whole
// domain cover the remaining levels. uint64 and float64 keys, which never
// take the flip, run the same inputs as controls.
func TestSampleRunTopDigitOrder(t *testing.T) {
	t.Run("int32", func(t *testing.T) { checkTopDigitCases(t, int32Keys) })
	t.Run("int64", func(t *testing.T) { checkTopDigitCases(t, int64Keys) })
	t.Run("int", func(t *testing.T) { checkTopDigitCases(t, intKeys) })
	t.Run("uint64", func(t *testing.T) { checkTopDigitCases(t, uint64Keys) })
	t.Run("float64", func(t *testing.T) { checkTopDigitCases(t, float64Keys) })
}

func checkTopDigitCases[T cmp.Ordered](t *testing.T, kt keyType[T]) {
	rng := testRNG()
	width := 8 * int(unsafe.Sizeof(*new(T)))
	sign := uint64(1) << (width - 1)
	below := uint64(1)<<(width-8) - 1 // the bits below the top byte
	words := func(n int, word func() uint64) []T {
		xs := make([]T, n)
		for i := range xs {
			xs[i] = kt.fromBits(word())
		}
		return xs
	}
	topByte := func(b uint64) func() uint64 {
		return func() uint64 { return b<<(width-8) | rng.Uint64()&below }
	}
	lowByte := func(base uint64) func() uint64 {
		return func() uint64 { return base&^0xff | rng.Uint64()&0xff }
	}
	z := rand.NewZipf(rng, 1.1, 1, 1<<20-1)
	neg, pos := sign|rng.Uint64(), rng.Uint64()&^sign
	cases := map[string][]T{
		"both-signs":     words(5000, rng.Uint64),
		"negative-top":   words(5000, topByte(0xc5)),
		"positive-top":   words(5000, topByte(0x3a)),
		"low-byte-neg":   words(5000, lowByte(neg)),
		"low-byte-pos":   words(5000, lowByte(pos)),
		"all-equal-neg":  words(3000, func() uint64 { return neg }),
		"all-equal-pos":  words(3000, func() uint64 { return pos }),
		"zipf-both-sign": words(5000, func() uint64 { return (z.Uint64() + 1) * 0x9e3779b97f4a7c15 }),
	}
	for n := 2; n <= radixCutoff; n++ {
		xs := words(n, rng.Uint64)
		xs[0], xs[n-1] = kt.fromBits(sign|rng.Uint64()), kt.fromBits(rng.Uint64()&^sign)
		cases[fmt.Sprintf("len%d", n)] = xs
	}
	for name, run := range cases {
		for _, step := range []int{1, 3, 64} {
			checkSampleRun(t, fmt.Sprintf("%s/step=%d", name, step), run, step, kt.bits)
		}
	}
}

// TestSampleRunByKind pins that SampleRun picks its kernel by the key
// type's kind and width, not its name: over the same keys, int and a named
// int64 type must leave the run exactly as int64 does, sample for sample
// and element for element, on both kernel paths, as must uint and uintptr
// against uint64 and a named float64 type, whose runs hold −0 and +0,
// against float64. A type that took another kernel would leave the run in
// another order.
func TestSampleRunByKind(t *testing.T) {
	type ticks int64
	type celsius float64
	ints := benchKeys(5000, "signed")
	uints := make([]uint64, len(ints))
	floats := make([]float64, len(ints))
	for i, k := range ints {
		uints[i] = uint64(k)
		floats[i] = float64(k%8) / 2
		if k%8 == 0 && k < 0 {
			floats[i] = math.Copysign(0, -1)
		}
	}
	checkSameKernel(t, "int", ints, func(k int64) int { return int(k) })
	checkSameKernel(t, "ticks", ints, func(k int64) ticks { return ticks(k) })
	checkSameKernel(t, "uint", uints, func(k uint64) uint { return uint(k) })
	checkSameKernel(t, "uintptr", uints, func(k uint64) uintptr { return uintptr(k) })
	checkSameKernel(t, "celsius", floats, func(k float64) celsius { return celsius(k) })
}

// checkSameKernel samples base, and base converted to T, with the same step
// on both kernel paths, and checks that the two leave equal samples and
// runs, bit for bit.
func checkSameKernel[B, T cmp.Ordered](t *testing.T, name string, base []B, conv func(B) T) {
	t.Helper()
	const step = 64
	same := func(a, b T) bool {
		if va := reflect.ValueOf(a); va.CanFloat() {
			return math.Float64bits(va.Float()) == math.Float64bits(reflect.ValueOf(b).Float())
		}
		return a == b
	}
	for _, scratch := range []bool{false, true} {
		want := slices.Clone(base)
		got := make([]T, len(base))
		for i, k := range base {
			got[i] = conv(k)
		}
		var bs []B
		var ts []T
		if scratch {
			bs, ts = make([]B, len(base)), make([]T, len(base))
		}
		wantSamples, err := SampleRun(want, bs, step, 1)
		if err != nil {
			t.Fatal(err)
		}
		gotSamples, err := SampleRun(got, ts, step, 1)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range wantSamples {
			if !same(gotSamples[k], conv(v)) {
				t.Fatalf("%s, scratch %t: sample %d = %v, want %v", name, scratch, k, gotSamples[k], v)
			}
		}
		for i, v := range want {
			if !same(got[i], conv(v)) {
				t.Fatalf("%s, scratch %t: element %d of the run = %v, want %v as its base type leaves it", name, scratch, i, got[i], v)
			}
		}
	}
}

// TestSplitDominant drives the bucket step directly. A bucket whose first,
// middle and last keys are equal while every other key is distinct is
// split all the same, and each rank k·step−1 it covers must then hold the
// word a sort puts there, with the bucket partitioned around it. A bucket
// whose probes all differ is left to the radix selection, untouched.
func TestSplitDominant(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { checkSplitDominant(t, func(r *rand.Rand) uint64 { return r.Uint64() }) })
	t.Run("uint32", func(t *testing.T) { checkSplitDominant(t, func(r *rand.Rand) uint32 { return r.Uint32() }) })
}

func checkSplitDominant[K radixKey](t *testing.T, word func(*rand.Rand) K) {
	rng := testRNG()
	for _, n := range []int{radixCutoff + 1, 1000} {
		for _, step := range []int{1, 7, 64} {
			for _, off := range []int{0, 5, 130} {
				keys := make([]K, n)
				for i := range keys {
					keys[i] = word(rng)
				}
				untouched := slices.Clone(keys)
				if splitDominant(keys, off, step) || !slices.Equal(keys, untouched) {
					t.Fatalf("n=%d: distinct probes split the bucket or reordered it", n)
				}
				p := keys[rng.Intn(n)]
				keys[0], keys[n/2], keys[n-1] = p, p, p
				want := slices.Sorted(slices.Values(keys))
				if !splitDominant(keys, off, step) {
					t.Fatalf("n=%d: three equal probes did not split", n)
				}
				if !slices.Equal(slices.Sorted(slices.Values(keys)), want) {
					t.Fatalf("n=%d: the split changed the bucket's multiset", n)
				}
				for r := (off/step+1)*step - 1 - off; r < n; r += step {
					if keys[r] != want[r] {
						t.Fatalf("n=%d, step=%d, off=%d: rank %d holds %#x, want %#x", n, step, off, r, keys[r], want[r])
					}
					if slices.Max(keys[:r+1]) != keys[r] || slices.Min(keys[r:]) != keys[r] {
						t.Fatalf("n=%d, step=%d, off=%d: bucket not partitioned around rank %d", n, step, off, r)
					}
				}
			}
		}
	}
}

func TestSampleRunArgs(t *testing.T) {
	if _, err := SampleRun([]int64{1, 2}, nil, 0, 1); err == nil {
		t.Error("SampleRun with step 0 should fail")
	}
	run := []int64{3, 1, 2}
	samples, err := SampleRun(run, nil, 4, 1)
	if err != nil || samples != nil {
		t.Fatalf("SampleRun(len 3, step 4) = %v, %v; want nil, nil", samples, err)
	}
	if !slices.Equal(run, []int64{3, 1, 2}) {
		t.Fatalf("a run shorter than step was reordered: %v", run)
	}
	// Key types outside the six keep MultiSelect.
	strs := []string{"d", "b", "a", "c"}
	samples2, err := SampleRun(strs, nil, 2, 1)
	if err != nil || !slices.Equal(samples2, []string{"b", "d"}) {
		t.Fatalf("SampleRun(strings) = %v, %v; want [b d]", samples2, err)
	}
}

// TestSampleRunScratchFallback pins the cases where SampleRun leaves its
// scratch alone: a numeric run longer than the scratch is selected in
// place and ends exactly as with no scratch, and a string run is
// multi-selected as before whatever scratch it is given.
func TestSampleRunScratchFallback(t *testing.T) {
	keys := benchKeys(5000, "zipf")
	checkScratchUnused(t, "int64", keys, len(keys)-1, -1)
	strs := make([]string, 5000)
	for i, k := range benchKeys(len(strs), "uniform") {
		strs[i] = fmt.Sprintf("%016x", k)
	}
	checkScratchUnused(t, "string", strs, len(strs), "scratch")
}

// checkScratchUnused samples run with no scratch and with an n-element
// scratch filled with fill, and checks that the scratch yields the
// no-scratch samples and run and is left as it was.
func checkScratchUnused[T cmp.Ordered](t *testing.T, name string, run []T, n int, fill T) {
	t.Helper()
	const step = 64
	want := slices.Clone(run)
	wantSamples, err := SampleRun(want, nil, step, 1)
	if err != nil {
		t.Fatal(err)
	}
	scratch := slices.Repeat([]T{fill}, n)
	got := slices.Clone(run)
	samples, err := SampleRun(got, scratch, step, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(samples, wantSamples) {
		t.Errorf("%s: samples with a %d-element scratch differ from none", name, n)
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: run left differently with a %d-element scratch than with none", name, n)
	}
	if slices.ContainsFunc(scratch, func(v T) bool { return v != fill }) {
		t.Errorf("%s: the %d-element scratch of a %d-element run was written", name, n, len(run))
	}
}

// TestSampleRunAllocs pins SampleRun's allocations to one, the sample
// list, on both kernel paths.
func TestSampleRunAllocs(t *testing.T) {
	keys := benchKeys(1<<14, "zipf")
	floats := make([]float64, len(keys))
	for i, k := range keys {
		floats[i] = float64(k) / (1 << 61)
	}
	checkSampleRunAllocs(t, "int64", keys)
	checkSampleRunAllocs(t, "float64", floats)
}

func checkSampleRunAllocs[T cmp.Ordered](t *testing.T, name string, src []T) {
	t.Helper()
	run := make([]T, len(src))
	for _, scratch := range [][]T{nil, make([]T, len(src))} {
		allocs := testing.AllocsPerRun(20, func() {
			copy(run, src)
			if _, err := SampleRun(run, scratch, 64, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s, scratch of %d: %.1f allocs/op, want 1 (the sample list)", name, len(scratch), allocs)
		}
	}
}

// FuzzSampleRun turns arbitrary bytes into NaN-free int64 and float64
// runs — 2-byte words when narrow, so duplicates are common, 8-byte words
// otherwise — and reads the same bytes as uint64 words and as int32 words
// (2-byte when narrow, 4-byte otherwise), and checks SampleRun against
// RegularSample and its partition postcondition on both kernel paths, in
// place and through a run-sized scratch. The signed runs order their top
// digit with the sign bit flipped, the unsigned ones read the same words
// raw. A non-zero hot overwrites a share of about hot/256 of the keys,
// chosen by an RNG seeded with hot, with the run's first key, so one key
// dominates the run.
func FuzzSampleRun(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(1), false, uint8(0))
	f.Add(make([]byte, 512), uint8(3), true, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f}, uint8(0), false, uint8(0))
	hotRaw := make([]byte, 8*600)
	rand.New(rand.NewSource(5)).Read(hotRaw)
	f.Add(hotRaw, uint8(2), false, uint8(200))
	// Negative words that share their top byte, so the first level sits
	// below it.
	negRaw := slices.Clone(hotRaw)
	for i := 7; i < len(negRaw); i += 8 {
		negRaw[i] = 0xc5
	}
	f.Add(negRaw, uint8(4), false, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, stepRaw uint8, narrow bool, hot uint8) {
		width, width32 := 8, 4
		if narrow {
			width, width32 = 2, 2
		}
		ints := make([]int64, 0, len(raw)/width)
		uints := make([]uint64, 0, len(raw)/width)
		floats := make([]float64, 0, len(raw)/width)
		for i := 0; i+width <= len(raw); i += width {
			var v int64
			var u uint64
			if narrow {
				u = uint64(binary.LittleEndian.Uint16(raw[i:]))
				v = int64(int16(u))
			} else {
				u = binary.LittleEndian.Uint64(raw[i:])
				v = int64(u)
			}
			ints = append(ints, v)
			uints = append(uints, u)
			floats = append(floats, float64Keys.fromBits(uint64(v)))
		}
		ints32 := make([]int32, 0, len(raw)/width32)
		for i := 0; i+width32 <= len(raw); i += width32 {
			if narrow {
				ints32 = append(ints32, int32(int16(binary.LittleEndian.Uint16(raw[i:]))))
			} else {
				ints32 = append(ints32, int32(binary.LittleEndian.Uint32(raw[i:])))
			}
		}
		if hot > 0 {
			overwriteHot(ints, hot)
			overwriteHot(uints, hot)
			overwriteHot(floats, hot)
			overwriteHot(ints32, hot)
		}
		step := 1 + int(stepRaw%16)
		checkSampleRun(t, "int64", ints, step, int64Keys.bits)
		checkSampleRun(t, "uint64", uints, step, uint64Keys.bits)
		checkSampleRun(t, "float64", floats, step, float64Keys.bits)
		checkSampleRun(t, "int32", ints32, step, int32Keys.bits)
	})
}

// overwriteHot overwrites a share of about hot/256 of xs, chosen by an RNG
// seeded with hot, with xs[0].
func overwriteHot[T any](xs []T, hot uint8) {
	r := rand.New(rand.NewSource(int64(hot)))
	for i := range xs {
		if r.Intn(256) < int(hot) {
			xs[i] = xs[0]
		}
	}
}

// benchKeys returns n int64 keys of one distribution: "uniform" over
// [0, 2⁶²); "zipf", Zipf(1.1) popularity ranks over 2²⁰ distinct keys
// scattered across that range; or "signed", uniform over the whole int64
// range, so about half the keys are negative.
func benchKeys(n int, dist string) []int64 {
	r := rand.New(rand.NewSource(7))
	z := rand.NewZipf(r, 1.1, 1, 1<<20-1)
	xs := make([]int64, n)
	for i := range xs {
		switch dist {
		case "zipf":
			xs[i] = int64((z.Uint64()+1)*0x61c8864680b583eb) & (1<<62 - 1)
		case "signed":
			xs[i] = int64(r.Uint64())
		default:
			xs[i] = r.Int63n(1 << 62)
		}
	}
	return xs
}

// BenchmarkSampleRun times one run's sample phase with both kernels:
// SampleRun, in place and through a run-sized scratch (SampleRunScratch),
// and MultiSelect with a fresh per-run RNG as the sample phase ran before
// SampleRun. Every iteration first copies the pristine run, since every
// kernel reorders it. Strings take MultiSelect in all three. The signed
// set is the only one with negative keys, whose top digit the kernel
// reads with the sign bit flipped.
func BenchmarkSampleRun(b *testing.B) {
	for _, size := range []struct{ m, s int }{{65536, 1024}, {2048, 32}} {
		for _, dist := range []string{"uniform", "zipf", "signed"} {
			keys := benchKeys(size.m, dist)
			floats := make([]float64, len(keys))
			strs := make([]string, len(keys))
			for i, k := range keys {
				floats[i] = float64(k) / (1 << 61)
				strs[i] = fmt.Sprintf("%016x", k)
			}
			name := fmt.Sprintf("m=%d,s=%d/%s", size.m, size.s, dist)
			benchKernels(b, name+"/int64", keys, size.s)
			benchKernels(b, name+"/float64", floats, size.s)
			benchKernels(b, name+"/string", strs, size.s)
		}
	}
}

func benchKernels[T cmp.Ordered](b *testing.B, name string, src []T, s int) {
	run := make([]T, len(src))
	step := len(src) / s
	for _, path := range []struct {
		name    string
		scratch []T
	}{{"SampleRun", nil}, {"SampleRunScratch", make([]T, len(src))}} {
		b.Run(name+"/"+path.name, func(b *testing.B) {
			for b.Loop() {
				copy(run, src)
				if _, err := SampleRun(run, path.scratch, step, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run(name+"/MultiSelect", func(b *testing.B) {
		for b.Loop() {
			copy(run, src)
			if _, err := RegularSample(run, s, rand.New(rand.NewSource(1))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
