package opaq_test

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

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

// A latency-monitoring pipeline observes one measurement at a time, keeps
// a running summary with the push-based StreamBuilder, reports p50, p95
// and p99 with deterministic bounds on demand, and checkpoints its state
// so a restart loses nothing: the paper's "keep the sorted samples"
// incremental story end to end.
func Example_streaming() {
	cfg := opaq.Config{RunLen: 5_000, SampleSize: 500}
	sb, err := opaq.NewStreamBuilder[int64](cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Request latencies in µs: an exponential body over a 2 ms floor, and
	// one request in fifty 50 ms slower.
	rng := rand.New(rand.NewSource(8))
	observe := func(n int) {
		for i := 0; i < n; i++ {
			lat := int64(2000 + rng.ExpFloat64()*1500)
			if rng.Intn(50) == 0 {
				lat += 50_000 // tail event
			}
			if err := sb.Add(lat); err != nil {
				log.Fatal(err)
			}
		}
	}

	observe(60_000)
	sum, err := sb.Summary()
	if err != nil {
		log.Fatal(err)
	}
	p50, _ := sum.Bounds(0.50)
	p95, _ := sum.Bounds(0.95)
	p99, _ := sum.Bounds(0.99)
	fmt.Printf("after 60k requests: n=%d p50∈[%d,%d] p95∈[%d,%d] p99∈[%d,%d] (±%d ranks each)\n",
		sum.N(), p50.Lower, p50.Upper, p95.Lower, p95.Upper, p99.Lower, p99.Upper, sum.ErrorBound())

	// Checkpoint: persist the summary, "crash", restore, keep ingesting.
	var checkpoint bytes.Buffer
	if err := opaq.SaveSummaryInt64(&checkpoint, sum); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointed %d bytes of summary state\n", checkpoint.Len())
	restored, err := opaq.LoadSummaryInt64(&checkpoint)
	if err != nil {
		log.Fatal(err)
	}

	// A fresh builder takes the traffic after the restart; its summary
	// merges with the restored one at query time.
	sb, err = opaq.NewStreamBuilder[int64](cfg)
	if err != nil {
		log.Fatal(err)
	}
	observe(60_000)
	recent, err := sb.Summary()
	if err != nil {
		log.Fatal(err)
	}
	combined, err := opaq.Merge(restored, recent)
	if err != nil {
		log.Fatal(err)
	}
	p50, _ = combined.Bounds(0.50)
	p99, _ = combined.Bounds(0.99)
	fmt.Printf("after restore+60k:  n=%d p50∈[%d,%d] p99∈[%d,%d]: the restart lost nothing\n",
		combined.N(), p50.Lower, p50.Upper, p99.Lower, p99.Upper)
	// Output:
	// after 60k requests: n=60000 p50∈[3072,3077] p95∈[7178,7264] p99∈[52859,53133] (±110 ranks each)
	// checkpointed 48076 bytes of summary state
	// after restore+60k:  n=120000 p50∈[3073,3079] p99∈[52859,53133]: the restart lost nothing
}

// The query-optimizer application from the paper's introduction: build an
// equi-depth histogram from one pass over a skewed attribute and estimate
// the selectivity of range predicates. Equi-depth boundaries come from
// quantiles, so they stay accurate under skew, where equi-width buckets
// fail.
func Example_selectivity() {
	// A Zipf-skewed attribute, such as product_id in an orders table,
	// where a few hot products dominate: 100,000 rows at the paper's skew
	// parameter 0.86.
	const n = 100_000
	gen, err := opaq.NewZipfGenerator(7, 100_000, 0.86)
	if err != nil {
		log.Fatal(err)
	}
	attr := make([]int64, n)
	for i := range attr {
		attr[i] = gen.Next()
	}

	// One pass, then a 20-bucket equi-depth histogram.
	sum, err := opaq.BuildFromSlice(attr, opaq.Config{RunLen: 12_500, SampleSize: 500})
	if err != nil {
		log.Fatal(err)
	}
	hist, err := opaq.BuildHistogram(sum, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("20 buckets over %d rows: boundary slack ≤ %d ranks, range estimates within ±%.0f rows\n\n",
		sum.N(), hist.SlackRanks(), hist.MaxRangeError())

	// Estimate "WHERE attr BETWEEN a AND b" and compare with the truth.
	sorted := slices.Clone(attr)
	slices.Sort(sorted)
	trueCount := func(a, b int64) int {
		lo, _ := slices.BinarySearch(sorted, a)
		hi, _ := slices.BinarySearch(sorted, b+1)
		return hi - lo
	}
	preds := [][2]int64{
		{0, 1 << 59},                    // a wide scan
		{1 << 60, 1 << 61},              // mid-range
		{sorted[n/2], sorted[n/2+n/10]}, // a narrow band above the median
		{sorted[n-n/100], sorted[n-1]},  // the top 1%
	}
	fmt.Printf("%-20s %-20s %10s %10s %9s\n", "a", "b", "estimated", "true", "err(rows)")
	worst := 0.0
	for _, p := range preds {
		est := hist.EstimateRange(p[0], p[1])
		truth := trueCount(p[0], p[1])
		fmt.Printf("%-20d %-20d %10.0f %10d %9.0f\n", p[0], p[1], est, truth, est-float64(truth))
		worst = max(worst, math.Abs(est-float64(truth)))
	}
	fmt.Printf("\nworst error %.0f rows, within the ceiling: %v\n", worst, worst <= hist.MaxRangeError())
	// Output:
	// 20 buckets over 100000 rows: boundary slack ≤ 194 ranks, range estimates within ±10388 rows
	//
	// a                    b                     estimated       true err(rows)
	// 0                    576460752303423488        12500      12775      -275
	// 1152921504606846976  2305843009213693952       20000      24941     -4941
	// 2302806103188792268  2765482286133162315       10000      10003        -3
	// 4565283606319221543  4611665018227035083        2500       1001      1499
	//
	// worst error 4941 rows, within the ceiling: true
}

// Run OPAQ's parallel formulation on the simulated message-passing
// machine (the paper's Section 3 on a modeled IBM SP-2): the per-phase
// time breakdown of Table 12 and near-linear speedup (Figure 6), all in
// simulated time, with the quantile bounds computed for real.
func Example_parallel() {
	// 8 processors × 32,000 keys each: every processor owns a shard on
	// its local (simulated) disk.
	const p, perProc = 8, 32_000
	shards := make([][]int64, p)
	for i := range shards {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		sh := make([]int64, perProc)
		for j := range sh {
			sh[j] = rng.Int63n(1 << 50)
		}
		shards[i] = sh
	}

	cfg := opaq.ParallelConfig{
		Core:  opaq.Config{RunLen: 8_000, SampleSize: 500},
		Procs: p,
		Merge: opaq.SampleMerge,
		Model: opaq.DefaultCostModel(),
		Disk:  opaq.DefaultDiskModel(),
	}
	res, err := opaq.ParallelRun(shards, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("parallel OPAQ: p=%d, %d keys total, simulated time %.3fs\n\n",
		p, res.Summary.N(), res.TotalTime.Seconds())
	total := float64(res.Phases.Total())
	fmt.Println("phase breakdown (max over processors, fractions of phase total):")
	fmt.Printf("  I/O          %6.1f%%\n", float64(res.Phases.IO)/total*100)
	fmt.Printf("  sampling     %6.1f%%\n", float64(res.Phases.Sampling)/total*100)
	fmt.Printf("  local merge  %6.1f%%\n", float64(res.Phases.LocalMerge)/total*100)
	fmt.Printf("  global merge %6.1f%%\n", float64(res.Phases.GlobalMerge)/total*100)

	fmt.Println("\ndectile bounds from the distributed sample list:")
	bounds, err := res.Summary.Quantiles(10)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range bounds {
		fmt.Printf("  phi=%.1f  [%d, %d]\n", b.Phi, b.Lower, b.Upper)
	}

	// Speedup: same total data, varying machine size.
	fmt.Println("\nspeedup at fixed total size (sample merge):")
	var all []int64
	for _, sh := range shards {
		all = append(all, sh...)
	}
	var t1 float64
	for _, procs := range []int{1, 2, 4, 8} {
		per := len(all) / procs
		shp := make([][]int64, procs)
		for i := range shp {
			shp[i] = all[i*per : (i+1)*per]
		}
		c := cfg
		c.Procs = procs
		r, err := opaq.ParallelRun(shp, c)
		if err != nil {
			log.Fatal(err)
		}
		if procs == 1 {
			t1 = r.TotalTime.Seconds()
		}
		fmt.Printf("  p=%-2d  %6.3fs  speedup %.2f\n", procs, r.TotalTime.Seconds(), t1/r.TotalTime.Seconds())
	}
	// Output:
	// parallel OPAQ: p=8, 256000 keys total, simulated time 0.067s
	//
	// phase breakdown (max over processors, fractions of phase total):
	//   I/O            51.7%
	//   sampling       43.1%
	//   local merge     0.9%
	//   global merge    4.3%
	//
	// dectile bounds from the distributed sample list:
	//   phi=0.1  [112133315265699, 114447514138762]
	//   phi=0.2  [225027112083866, 227297009163103]
	//   phi=0.3  [337079595181032, 339009630209465]
	//   phi=0.4  [451007934182631, 453087584848997]
	//   phi=0.5  [562540102637020, 565027284889375]
	//   phi=0.6  [674094528467019, 676335168351852]
	//   phi=0.7  [786614423486672, 788706367333036]
	//   phi=0.8  [900143942396166, 902265120187574]
	//   phi=0.9  [1012630206664440, 1014742234033315]
	//
	// speedup at fixed total size (sample merge):
	//   p=1    0.516s  speedup 1.00
	//   p=2    0.263s  speedup 1.96
	//   p=4    0.132s  speedup 3.92
	//   p=8    0.067s  speedup 7.72
}

// Build one quantile summary from many shards concurrently. Each shard
// runs the full local sample phase in its own goroutine, the shard
// summaries are merged in one k-way pass, and the result is bit-identical
// to a sequential build over all the data, which this example checks by
// comparing saved bytes. (The paper's Section 3 bitonic and sample
// merges, which move the lists between processors, run on the simulated
// machine: see Example_parallel.)
func Example_sharded() {
	// 200,000 keys, as if arriving pre-sharded (one dataset per node,
	// table partition, Kafka partition, ...).
	const n, runLen = 200_000, 1 << 13
	cfg := opaq.Config{RunLen: runLen, SampleSize: 1 << 8, Workers: 1}
	rng := rand.New(rand.NewSource(7))
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = rng.Int63n(1 << 50)
	}
	saved := func(s *opaq.Summary[int64]) []byte {
		var buf bytes.Buffer
		if err := opaq.SaveSummaryInt64(&buf, s); err != nil {
			log.Fatal(err)
		}
		return buf.Bytes()
	}

	seq, err := opaq.BuildFromSlice(xs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, shards := range []int{2, 4, 8} {
		// Every shard but the last holds whole runs, the cut under which
		// the sharded build equals the sequential one.
		pieces, err := opaq.ShardSlices(xs, shards, runLen)
		if err != nil {
			log.Fatal(err)
		}
		datasets := make([]opaq.Dataset[int64], len(pieces))
		for i, p := range pieces {
			datasets[i] = opaq.NewMemoryDataset(p, 8)
		}
		sum, err := opaq.BuildSharded(datasets, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sharded build (%d shards): identical=%v\n", shards, bytes.Equal(saved(seq), saved(sum)))
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
	// Output:
	// sharded build (2 shards): identical=true
	// sharded build (4 shards): identical=true
	// sharded build (8 shards): identical=true
	//
	// dectile bounds from the sharded summary (8 shards):
	//   phi=0.1  [112417982105773, 116385905059307]  (≤767 elements to truth)
	//   phi=0.2  [223566662594425, 228131792757771]  (≤767 elements to truth)
	//   phi=0.3  [335102104835727, 339355393826067]  (≤767 elements to truth)
	//   phi=0.4  [448438161284570, 452789590056268]  (≤767 elements to truth)
	//   phi=0.5  [561549840046344, 566281127567507]  (≤767 elements to truth)
	//   phi=0.6  [674185889608648, 678519074677597]  (≤767 elements to truth)
	//   phi=0.7  [787214304502186, 792403717180824]  (≤767 elements to truth)
	//   phi=0.8  [900078559895754, 904300572334163]  (≤767 elements to truth)
	//   phi=0.9  [1012197724931152, 1016577381865123]  (≤767 elements to truth)
}

// Sort a run file that does not fit the configured memory budget, the
// paper's external-sorting application, in three passes: one OPAQ pass to
// learn splitters, one scatter pass into buckets that each fit in memory
// (Lemma 1 bounds every bucket's size), and one pass sorting and
// concatenating the buckets.
func Example_extsort() {
	dir, err := os.MkdirTemp("", "opaq-extsort")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	in := filepath.Join(dir, "unsorted.run")
	out := filepath.Join(dir, "sorted.run")

	// 200,000 uniform keys on disk, streamed out without ever holding
	// them all in memory.
	const n = 200_000
	rng := rand.New(rand.NewSource(9))
	if err := opaq.WriteInt64FileFunc(in, n, func(int64) int64 { return rng.Int63() }); err != nil {
		log.Fatal(err)
	}

	// Memory budget: 32,768 keys. 8 buckets of about 25,000 each fit;
	// s = 512 ≥ 2·8 keeps the Lemma 1 balance guarantee. Workers: 0 runs
	// the splitter-learning OPAQ pass concurrently across all cores.
	stats, err := opaq.ExternalSort(in, out, opaq.SortOptions{
		Buckets: 8,
		Config:  opaq.Config{RunLen: 1 << 15, SampleSize: 1 << 9, Workers: 0},
		TempDir: dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sorted %d keys via %d partitions\n", stats.N, len(stats.BucketSizes))
	fmt.Printf("partition balance: ideal %d, max %d (imbalance %.3f; guarantee ≈ 1 + k/s = %.3f)\n",
		n/len(stats.BucketSizes), stats.MaxBucket, stats.Imbalance(),
		1+float64(len(stats.BucketSizes))/512)

	// Verify: the output file is sorted and complete, scanning run by run.
	ds, err := opaq.OpenInt64File(out)
	if err != nil {
		log.Fatal(err)
	}
	rr, err := ds.Runs(1 << 14)
	if err != nil {
		log.Fatal(err)
	}
	defer rr.Close()
	var prev int64
	seen := int64(0)
	for {
		run, err := rr.NextRun()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		for _, v := range run {
			if seen > 0 && v < prev {
				log.Fatalf("output not sorted at element %d: %d < %d", seen, v, prev)
			}
			prev = v
			seen++
		}
	}
	fmt.Printf("verified: scanned %d keys in sorted order\n", seen)

	// The same machinery is generic over key codecs: sort a float64 run
	// file with the identical three-pass plan.
	fin := filepath.Join(dir, "unsorted-f64.run")
	fout := filepath.Join(dir, "sorted-f64.run")
	if err := opaq.WriteFileFunc(fin, opaq.Float64Codec{}, 50_000, func(int64) float64 { return rng.NormFloat64() }); err != nil {
		log.Fatal(err)
	}
	fstats, err := opaq.Sort(fin, fout, opaq.Float64Codec{}, opaq.SortOptions{
		Buckets: 4,
		Config:  opaq.Config{RunLen: 1 << 13, SampleSize: 1 << 8},
		TempDir: dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generic path: sorted %d float64 keys via %d partitions (imbalance %.3f)\n",
		fstats.N, len(fstats.BucketSizes), fstats.Imbalance())
	// Output:
	// sorted 200000 keys via 8 partitions
	// partition balance: ideal 25000, max 25212 (imbalance 1.008; guarantee ≈ 1 + k/s = 1.016)
	// verified: scanned 200000 keys in sorted order
	// generic path: sorted 50000 float64 keys via 4 partitions (imbalance 1.009)
}
