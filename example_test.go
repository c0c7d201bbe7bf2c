package opaq_test

import (
	"fmt"
	"log"
	"math/rand"

	"opaq"
)

// Estimate quantiles of a dataset in one pass with deterministic error
// bounds, then refine one to an exact value with a second pass.
func Example_quickstart() {
	// Pretend these are 200,000 transaction amounts sitting on disk.
	// RunLen (m) is how many fit in memory at once; SampleSize (s) buys
	// accuracy: at most n/s elements can separate a true quantile from
	// either bound.
	const n = 200_000
	rng := rand.New(rand.NewSource(42))
	amounts := make([]int64, n)
	for i := range amounts {
		amounts[i] = rng.Int63n(1_000_000)
	}

	// Workers: 0 samples runs on one goroutine per core (runs are
	// prefetched while earlier ones are sampled); the summary is
	// bit-identical to a one-worker build.
	cfg := opaq.Config{RunLen: 25_000, SampleSize: 500, Workers: 0}
	sum, err := opaq.BuildFromSlice(amounts, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one pass over %d elements: %d runs, %d samples kept, error ≤ %d elements per bound\n\n",
		sum.N(), sum.Runs(), sum.SampleCount(), sum.ErrorBound())

	// Dectiles, each O(1) from the same summary.
	bounds, err := sum.Quantiles(10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("phi    lower     upper     (true value is guaranteed inside)")
	for _, b := range bounds {
		fmt.Printf("%.1f  %8d  %8d\n", b.Phi, b.Lower, b.Upper)
	}

	// Bound the rank of an arbitrary key without touching the data again.
	lo, hi := sum.RankBounds(500_000)
	fmt.Printf("\nrank(500000) ∈ [%d, %d]  (width %d ≈ n/s + slack)\n", lo, hi, hi-lo)

	// One extra pass turns an enclosure into the exact value.
	ds := opaq.NewMemoryDataset(amounts, 8)
	median, err := opaq.ExactQuantile(ds, sum, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact median (second pass): %d\n", median)
	// Output:
	// one pass over 200000 elements: 8 runs, 4000 samples kept, error ≤ 394 elements per bound
	//
	// phi    lower     upper     (true value is guaranteed inside)
	// 0.1     98884    100393
	// 0.2    198566    200379
	// 0.3    298721    300143
	// 0.4    397385    399148
	// 0.5    498012    500006
	// 0.6    597485    599636
	// 0.7    698415    699231
	// 0.8    798554    800428
	// 0.9    898611    900545
	//
	// rank(500000) ∈ [99950, 100342]  (width 392 ≈ n/s + slack)
	// exact median (second pass): 499136
}

// Maintain quantiles as new data arrives, without rescanning old data:
// the paper's Section 4 ("if the sorted samples are kept from the runs of
// the old data, one need only compute the sorted samples from the new
// runs and merge with the old sorted samples"). A week of daily batches
// arrives; each day only the new batch is scanned, and the running
// summary answers quantiles over everything seen.
func Example_incremental() {
	cfg := opaq.Config{RunLen: 5_000, SampleSize: 250}

	// The running summary starts empty.
	running, err := opaq.BuildFromSlice[int64](nil, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("day  batch      total       p50 enclosure              p99 enclosure")
	rng := rand.New(rand.NewSource(2026))
	for day := 1; day <= 7; day++ {
		// Each day's batch drifts upward: a latency regression creeping in.
		batch := make([]int64, 40_000)
		drift := int64(day * 2_000)
		for i := range batch {
			batch[i] = rng.Int63n(100_000) + drift
		}

		// One pass over the new batch only.
		daily, err := opaq.BuildFromSlice(batch, cfg)
		if err != nil {
			log.Fatal(err)
		}
		running, err = opaq.Merge(running, daily)
		if err != nil {
			log.Fatal(err)
		}

		p50, err := running.Bounds(0.50)
		if err != nil {
			log.Fatal(err)
		}
		p99, err := running.Bounds(0.99)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4d %-10d %-11d [%6d, %6d]           [%6d, %6d]\n",
			day, len(batch), running.N(), p50.Lower, p50.Upper, p99.Lower, p99.Upper)
	}

	fmt.Printf("\nafter 7 days: %d runs merged, %d samples held, error ≤ %d elements per bound\n",
		running.Runs(), running.SampleCount(), running.ErrorBound())
	fmt.Println("no old data was ever rescanned — each batch was read exactly once")
	// Output:
	// day  batch      total       p50 enclosure              p99 enclosure
	// 1    40000      40000       [ 51651,  52014]           [100872, 101260]
	// 2    40000      80000       [ 52535,  52952]           [101737, 102053]
	// 3    40000      120000      [ 53721,  54084]           [103101, 103697]
	// 4    40000      160000      [ 54722,  55162]           [104589, 105325]
	// 5    40000      200000      [ 55814,  56175]           [105970, 106734]
	// 6    40000      240000      [ 56806,  57182]           [107534, 108303]
	// 7    40000      280000      [ 57778,  58159]           [108951, 109835]
	//
	// after 7 days: 56 runs merged, 14000 samples held, error ≤ 1066 elements per bound
	// no old data was ever rescanned — each batch was read exactly once
}
