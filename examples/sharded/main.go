// Sharded: build one quantile summary from many shards concurrently. Each
// shard runs the full local sample phase in its own goroutine; the shard
// summaries are merged in one k-way pass; and the result is bit-identical
// to a sequential build over all the data — which this program verifies,
// along with the wall-clock speedup. (The paper's Section 3 bitonic and
// sample merges, which move the lists between processors, run on the
// simulated machine: see Example_parallel in example_test.go.)
//
// Run with: go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"opaq"
)

func main() {
	// 4M keys total, as if arriving pre-sharded (one dataset per node,
	// table partition, Kafka partition, ...).
	const n, runLen = 4_000_000, 1 << 16
	cfg := opaq.Config{RunLen: runLen, SampleSize: 1 << 10, Workers: 1}
	rng := rand.New(rand.NewSource(7))
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = rng.Int63n(1 << 50)
	}

	// Sequential reference build.
	start := time.Now()
	seq, err := opaq.BuildFromSlice(xs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	seqTime := time.Since(start)
	fmt.Printf("sequential build:            %8v\n", seqTime.Round(time.Millisecond))

	for _, shards := range []int{2, 4, 8} {
		pieces, err := opaq.ShardSlices(xs, shards, runLen)
		if err != nil {
			log.Fatal(err)
		}
		datasets := make([]opaq.Dataset[int64], len(pieces))
		for i, p := range pieces {
			datasets[i] = opaq.NewMemoryDataset(p, 8)
		}
		start = time.Now()
		sum, err := opaq.BuildSharded(datasets, cfg)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("sharded build (%d shards):    %8v  speedup %.2fx  identical=%v\n",
			shards, elapsed.Round(time.Millisecond),
			float64(seqTime)/float64(elapsed), identical(seq, sum))
	}

	// The summary serves quantiles exactly like a sequential one.
	fmt.Println("\ndectile bounds from the sharded summary (8 shards):")
	sum, err := opaq.BuildShardedFromSlice(xs, cfg, 8)
	if err != nil {
		log.Fatal(err)
	}
	bounds, err := sum.Quantiles(10)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range bounds {
		fmt.Printf("  phi=%.1f  [%d, %d]  (≤%d elements to truth)\n", b.Phi, b.Lower, b.Upper, b.MaxBelow)
	}
}

// identical checks the bit-level determinism guarantee.
func identical(a, b *opaq.Summary[int64]) bool {
	pa, pb := a.Parts(), b.Parts()
	if pa.N != pb.N || pa.Runs != pb.Runs || pa.Step != pb.Step ||
		pa.Leftover != pb.Leftover || pa.Min != pb.Min || pa.Max != pb.Max ||
		len(pa.Samples) != len(pb.Samples) {
		return false
	}
	for i := range pa.Samples {
		if pa.Samples[i] != pb.Samples[i] {
			return false
		}
	}
	return true
}
