package parallel

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"opaq/internal/merge"
	"opaq/internal/simnet"
)

// GlobalMergeTime runs only the global merge step — p processors each
// holding a sorted list of listLen elements — under the given algorithm and
// cost model, and returns the simulated parallel time. This isolates the
// comparison of Figure 3 of the paper (bitonic vs sample merge for varying
// per-processor data sizes and processor counts).
//
// The merged output is validated (globally sorted, no elements lost), so
// the benchmark cannot silently time a broken merge.
func GlobalMergeTime(listLen, p int, algo MergeAlgo, model simnet.CostModel, seed int64) (time.Duration, error) {
	if listLen < 1 || p < 1 {
		return 0, fmt.Errorf("parallel: GlobalMergeTime needs positive listLen and p, got %d, %d", listLen, p)
	}
	if err := validMergeAlgo(algo, p); err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	lists := make([][]int64, p)
	var all []int64
	for i := range lists {
		l := make([]int64, listLen)
		for j := range l {
			l[j] = rng.Int63n(1 << 40)
		}
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		lists[i] = l
		all = append(all, l...)
	}
	m, err := simnet.NewMachine(p, model)
	if err != nil {
		return 0, err
	}
	blocks := make([][]int64, p)
	err = m.Run(func(pr *simnet.Proc) error {
		block, err := globalMerge(pr, algo, lists[pr.ID()])
		if err != nil {
			return err
		}
		blocks[pr.ID()] = block
		return nil
	})
	if err != nil {
		return 0, err
	}
	var got []int64
	for _, b := range blocks {
		got = append(got, b...)
	}
	got = got[:len(all)] // strip bitonic pad sentinels (sort to the end)
	if !merge.IsSorted(got) {
		return 0, fmt.Errorf("parallel: %v merge produced unsorted output", algo)
	}
	return m.MaxClock(), nil
}
