package merge

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSplit(t *testing.T) {
	a := []int64{1, 3, 5, 7}
	b := []int64{2, 4, 6, 8}
	low := Split(a, b, true)
	high := Split(a, b, false)
	wantLow := []int64{1, 2, 3, 4}
	wantHigh := []int64{5, 6, 7, 8}
	for i := range wantLow {
		if low[i] != wantLow[i] || high[i] != wantHigh[i] {
			t.Fatalf("Split: low=%v high=%v", low, high)
		}
	}
}

// Split(a,b,low) ++ Split(a,b,high) must equal the full two-way merge for
// random equal-length sorted blocks, including duplicates.
func TestSplitHalvesRecoverMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			a[i] = int64(rng.Intn(20))
			b[i] = int64(rng.Intn(20))
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		full := Two(nil, a, b)
		got := append(Split(a, b, true), Split(a, b, false)...)
		for i := range full {
			if got[i] != full[i] {
				t.Fatalf("trial %d: split halves %v != merge %v", trial, got, full)
			}
		}
	}
}

func TestKWayBasic(t *testing.T) {
	got := KWay([][]int64{{1, 4, 7}, {2, 5, 8}, {3, 6, 9}})
	want := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	assertEqual(t, got, want)
}

func TestKWayEmptyInputs(t *testing.T) {
	if got := KWay[int64](nil); len(got) != 0 {
		t.Errorf("KWay(nil) = %v, want empty", got)
	}
	if got := KWay([][]int64{{}, {}, {}}); len(got) != 0 {
		t.Errorf("KWay(empties) = %v, want empty", got)
	}
}

func TestKWaySingleList(t *testing.T) {
	got := KWay([][]int64{{}, {3, 4, 5}, {}})
	assertEqual(t, got, []int64{3, 4, 5})
}

func TestKWayUnevenLengths(t *testing.T) {
	got := KWay([][]int64{{10}, {1, 2, 3, 4, 5}, {}, {0, 6}})
	assertEqual(t, got, []int64{0, 1, 2, 3, 4, 5, 6, 10})
}

func TestKWayAllDuplicates(t *testing.T) {
	got := KWay([][]int64{{5, 5}, {5}, {5, 5, 5}})
	assertEqual(t, got, []int64{5, 5, 5, 5, 5, 5})
}

func TestKWayTwoLists(t *testing.T) {
	a := []int64{1, 3, 5}
	b := []int64{2, 4, 6}
	assertEqual(t, KWay([][]int64{a, b}), Two(nil, a, b))
}

func TestTwo(t *testing.T) {
	assertEqual(t, Two(nil, []int64{1, 2, 2}, []int64{2, 3}), []int64{1, 2, 2, 2, 3})
	assertEqual(t, Two(nil, nil, []int64{1}), []int64{1})
	assertEqual(t, Two(nil, []int64{1}, nil), []int64{1})
	assertEqual(t, Two[int64](nil, nil, nil), []int64{})
	assertEqual(t, Two([]int64{9}, []int64{1, 3}, []int64{2}), []int64{9, 1, 2, 3})
}

// TestKWayStableTies pins the tie order of the two-list loop and the heap
// alike: equal keys keep the order of their lists, so −0 and +0, which
// compare equal, come out in list order. The merge must equal a stable
// sort of the lists' concatenation, bit for bit, whether two lists are
// non-empty or three.
func TestKWayStableTies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	negZero := math.Copysign(0, -1)
	list := func(n int) []float64 {
		l := make([]float64, n)
		for i := range l {
			switch rng.Intn(3) {
			case 0:
				l[i] = negZero
			case 1:
				l[i] = 0
			default:
				l[i] = float64(rng.Intn(5) - 2)
			}
		}
		slices.SortStableFunc(l, func(a, b float64) int {
			if a < b {
				return -1
			}
			if a > b {
				return 1
			}
			return 0
		})
		return l
	}
	for _, lists := range [][][]float64{
		{list(40), list(37)},
		{nil, list(50), nil, list(1)},
		{list(30), list(30), list(30)},
	} {
		var want []float64
		for _, l := range lists {
			want = append(want, l...)
		}
		slices.SortStableFunc(want, func(a, b float64) int {
			if a < b {
				return -1
			}
			if a > b {
				return 1
			}
			return 0
		})
		got := KWay(lists)
		if len(got) != len(want) {
			t.Fatalf("%d lists: %d keys, want %d", len(lists), len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d lists: key %d is %v, want %v", len(lists), i, got[i], want[i])
			}
		}
	}
}

func TestKWayDoesNotModifyInputs(t *testing.T) {
	a := []int64{1, 3}
	b := []int64{2, 4}
	KWay([][]int64{a, b})
	assertEqual(t, a, []int64{1, 3})
	assertEqual(t, b, []int64{2, 4})
}

func TestIsSorted(t *testing.T) {
	if !IsSorted([]int64{}) || !IsSorted([]int64{1}) || !IsSorted([]int64{1, 1, 2}) {
		t.Error("IsSorted false negatives")
	}
	if IsSorted([]int64{2, 1}) {
		t.Error("IsSorted false positive")
	}
}

func TestKWayManyLists(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := 257 // not a power of two: exercises odd tree shapes
	lists := make([][]int64, k)
	var all []int64
	for i := range lists {
		n := rng.Intn(20)
		l := make([]int64, n)
		for j := range l {
			l[j] = rng.Int63n(1000)
		}
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		lists[i] = l
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	assertEqual(t, KWay(lists), all)
}

// Property: KWay(sorted chunks of xs) == sort(xs).
func TestQuickKWayEqualsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(raw []int64, kRaw uint8) bool {
		k := 1 + int(kRaw)%8
		lists := make([][]int64, k)
		for i, x := range raw {
			lists[i%k] = append(lists[i%k], x)
		}
		for i := range lists {
			sort.Slice(lists[i], func(a, b int) bool { return lists[i][a] < lists[i][b] })
		}
		got := KWay(lists)
		want := append([]int64(nil), raw...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func assertEqual[T comparable](t *testing.T, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("index %d: got %v, want %v", i, got, want)
		}
	}
}

// BenchmarkKWayInto merges k sorted lists of 32 Ki int64 keys into a
// reused buffer: two lists take the two-way loop, more take the heap.
func BenchmarkKWayInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{2, 8} {
		lists := make([][]int64, k)
		for i := range lists {
			lists[i] = make([]int64, 32<<10)
			for j := range lists[i] {
				lists[i][j] = rng.Int63()
			}
			slices.Sort(lists[i])
		}
		dst := make([]int64, 0, k*32<<10)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for b.Loop() {
				dst = KWayInto(dst[:0], lists)
			}
		})
	}
}
