// Quickstart: estimate quantiles of a dataset in one pass with
// deterministic error bounds, then refine one to an exact value with a
// second pass.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"opaq"
)

func main() {
	// Pretend this is 2M transaction amounts sitting on disk. RunLen (m)
	// is how many fit in memory at once; SampleSize (s) buys accuracy:
	// at most n/s elements can separate a true quantile from either bound.
	const n = 2_000_000
	rng := rand.New(rand.NewSource(42))
	amounts := make([]int64, n)
	for i := range amounts {
		amounts[i] = rng.Int63n(1_000_000)
	}

	// Workers: 0 samples runs on one goroutine per core (runs are
	// prefetched while earlier ones are sampled); the summary is
	// bit-identical to a one-worker build.
	cfg := opaq.Config{RunLen: 250_000, SampleSize: 1000, Workers: 0}
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
}
