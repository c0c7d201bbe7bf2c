// Command opaq estimates quantiles of disk-resident run files with the
// OPAQ algorithm.
//
// Usage:
//
//	opaq gen       -out data.run -n 1000000 -dist zipf -seed 7
//	opaq quantiles -in data.run -q 10 -m 65536 -s 1024 -shards 8
//	opaq exact     -in data.run -phi 0.5 -m 65536 -s 1024
//	opaq rank      -in data.run -key 12345 -m 65536 -s 1024
//	opaq histogram -in data.run -buckets 20 -m 65536 -s 1024
//	opaq sort      -in data.run -out sorted.run -buckets 16 -m 65536 -s 1024
//	opaq checkpoint -in data.run -out state.sum -m 65536 -s 1024
//	opaq merge     -a day1.sum -b day2.sum -out all.sum -q 10
//	opaq cdf       -in data.run -key 12345 -m 65536 -s 1024
//	opaq serve     -addr :8080 -m 65536 -s 1024 -load data.run -checkpoint state.sum
//	opaq serve     -addr :8080 -tenants orders,users -epoch 1000000 -window 24 \
//	               -checkpoint-dir /var/lib/opaq -max-pending 67108864
//	opaq worker    -addr :9001 -checkpoint-dir /var/lib/opaq-w1
//	opaq coord     -addr :8080 -workers http://h1:9001,http://h2:9001 -spread 2
//
// Every subcommand performs the minimum number of passes: quantiles,
// rank and histogram one pass; exact two; sort three. -shards N splits the
// build into N run-aligned shards of the file, built concurrently and
// merged in one k-way pass; the summary is bit-identical for every N.
//
// serve runs the live quantile service: POST /ingest streams keys in;
// GET /quantile, /quantiles, /selectivity and /stats answer from
// epoch-cached snapshots; GET /healthz reports liveness plus per-tenant
// stats; and SIGINT/SIGTERM drain in-flight queries before checkpointing
// the final state. Summaries move through an epoch lifecycle: -epoch,
// -epoch-bytes and -epoch-interval seal completed runs into immutable
// epochs, and -window K (last K epochs) or -retain-age D (trailing
// wall-clock window) evict aged epochs so quantiles describe a sliding
// window instead of everything ever seen. -tenants serves several
// independently queryable engines behind one mux (/t/{tenant}/...; the
// root routes alias the default tenant; POST/GET/DELETE /admin/tenants
// manage the set at runtime), each checkpointing to its own file in
// -checkpoint-dir and restoring warm on boot. -max-body and -max-pending
// bound resident ingest state (413 / 429 + Retry-After beyond them).
//
// worker and coord form the distributed tier. worker is serve under the
// name the cluster gives it: one engine registry process owning a shard
// of the tenants, checkpointing locally. coord fronts a fleet of
// workers with the same HTTP surface — tenants are placed by a
// consistent-hash ring, ingest routes to the owning workers, queries
// scatter-gather per-worker summaries and merge them (summaries are
// mergeable by construction, so the merged answer is byte-identical to
// a single-process build over the same run-aligned stream). When a
// worker is down the coordinator answers from the survivors with
// "partial": true, and /healthz aggregates fleet health.
package main

import (
	"flag"
	"fmt"
	"os"

	"opaq"
	"opaq/internal/datagen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "quantiles":
		err = cmdQuantiles(os.Args[2:])
	case "exact":
		err = cmdExact(os.Args[2:])
	case "rank":
		err = cmdRank(os.Args[2:])
	case "histogram":
		err = cmdHistogram(os.Args[2:])
	case "sort":
		err = cmdSort(os.Args[2:])
	case "checkpoint":
		err = cmdCheckpoint(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "cdf":
		err = cmdCDF(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "worker":
		// A worker is serve wearing its cluster hat: an engine registry
		// with local checkpoints, fronted by a coordinator.
		err = cmdServe(os.Args[2:])
	case "coord":
		err = cmdCoord(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "opaq: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "opaq: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: opaq <gen|quantiles|exact|rank|histogram|sort|checkpoint|merge|cdf|serve|worker|coord> [flags]
run "opaq <subcommand> -h" for flags`)
}

// sampleArgs are the flags shared by every summary-building subcommand.
type sampleArgs struct {
	in     *string
	m, s   *int
	w      *int
	shards *int
}

func sampleFlags(fs *flag.FlagSet) sampleArgs {
	return sampleArgs{
		in:     fs.String("in", "", "input run file"),
		m:      fs.Int("m", 1<<16, "run length (elements per run)"),
		s:      fs.Int("s", 1<<10, "samples per run (must divide m)"),
		w:      fs.Int("workers", 0, "concurrent sampling workers per shard (0 = GOMAXPROCS, 1 = sequential)"),
		shards: fs.Int("shards", 1, "build through the sharded engine with this many shards (result is bit-identical to -shards 1)"),
	}
}

// build produces the summary through the sharded build: the file is split
// into -shards run-aligned sections scanned concurrently (no
// materialization), so the summary bytes are the same for every count.
func (a sampleArgs) build() (opaq.Dataset[int64], *opaq.Summary[int64], error) {
	if *a.in == "" {
		return nil, nil, fmt.Errorf("missing -in")
	}
	ds, err := opaq.OpenInt64File(*a.in)
	if err != nil {
		return nil, nil, err
	}
	cfg := opaq.Config{RunLen: *a.m, SampleSize: *a.s, Workers: *a.w}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if *a.shards < 1 {
		return nil, nil, fmt.Errorf("-shards must be ≥ 1, got %d", *a.shards)
	}
	sections, err := opaq.ShardFile(*a.in, opaq.Int64Codec{}, *a.shards, *a.m)
	if err != nil {
		return nil, nil, err
	}
	sum, err := opaq.BuildSharded(sections, cfg)
	if err != nil {
		return nil, nil, err
	}
	return ds, sum, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "", "output run file")
	n := fs.Int64("n", 1_000_000, "number of keys")
	dist := fs.String("dist", "uniform", "distribution: uniform, zipf, sorted, reverse, normal")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("missing -out")
	}
	var g datagen.Generator
	switch *dist {
	case "uniform", "zipf":
		var err error
		if g, err = datagen.PaperGenerator(*dist, int(*n), *seed); err != nil {
			return err
		}
	case "sorted":
		g = datagen.NewSorted(1)
	case "reverse":
		g = datagen.NewReverse(*n, 1)
	case "normal":
		g = datagen.NewNormal(*seed, 1e9, 1e8)
	default:
		return fmt.Errorf("unknown distribution %q", *dist)
	}
	if err := opaq.WriteInt64FileFunc(*out, *n, func(int64) int64 { return g.Next() }); err != nil {
		return err
	}
	fmt.Printf("wrote %d %s keys to %s\n", *n, *dist, *out)
	return nil
}

func cmdQuantiles(args []string) error {
	fs := flag.NewFlagSet("quantiles", flag.ExitOnError)
	sa := sampleFlags(fs)
	q := fs.Int("q", 10, "report the q−1 equally spaced quantiles")
	fs.Parse(args)
	_, sum, err := sa.build()
	if err != nil {
		return err
	}
	bounds, err := sum.Quantiles(*q)
	if err != nil {
		return err
	}
	fmt.Printf("n=%d runs=%d samples=%d error bound=%d elements (≈ n/s)\n",
		sum.N(), sum.Runs(), sum.SampleCount(), sum.ErrorBound())
	fmt.Printf("%-8s %-22s %-22s %s\n", "phi", "lower", "upper", "max elems to truth")
	for _, b := range bounds {
		fmt.Printf("%-8.2f %-22d %-22d ≤%d/≤%d\n", b.Phi, b.Lower, b.Upper, b.MaxBelow, b.MaxAbove)
	}
	return nil
}

func cmdExact(args []string) error {
	fs := flag.NewFlagSet("exact", flag.ExitOnError)
	sa := sampleFlags(fs)
	phi := fs.Float64("phi", 0.5, "quantile fraction in (0,1]")
	fs.Parse(args)
	ds, sum, err := sa.build()
	if err != nil {
		return err
	}
	v, err := opaq.ExactQuantile(ds, sum, *phi)
	if err != nil {
		return err
	}
	fmt.Printf("exact %g-quantile = %d (two passes)\n", *phi, v)
	return nil
}

func cmdRank(args []string) error {
	fs := flag.NewFlagSet("rank", flag.ExitOnError)
	sa := sampleFlags(fs)
	key := fs.Int64("key", 0, "key whose rank to bound")
	fs.Parse(args)
	_, sum, err := sa.build()
	if err != nil {
		return err
	}
	lo, hi := sum.RankBounds(*key)
	fmt.Printf("rank(%d) ∈ [%d, %d] of %d (width %d)\n", *key, lo, hi, sum.N(), hi-lo)
	return nil
}

func cmdHistogram(args []string) error {
	fs := flag.NewFlagSet("histogram", flag.ExitOnError)
	sa := sampleFlags(fs)
	buckets := fs.Int("buckets", 10, "equi-depth bucket count")
	fs.Parse(args)
	_, sum, err := sa.build()
	if err != nil {
		return err
	}
	h, err := opaq.BuildHistogram(sum, *buckets)
	if err != nil {
		return err
	}
	fmt.Printf("equi-depth histogram: %d buckets × ≈%d elements, boundary slack ≤ %d ranks\n",
		h.Buckets(), sum.N()/int64(*buckets), h.SlackRanks())
	for i, b := range h.Boundaries() {
		fmt.Printf("bucket %2d: ≤ %d\n", i, b)
	}
	return nil
}

func cmdSort(args []string) error {
	fs := flag.NewFlagSet("sort", flag.ExitOnError)
	sa := sampleFlags(fs)
	out := fs.String("out", "", "output run file")
	buckets := fs.Int("buckets", 16, "partition count (each partition must fit in memory)")
	fs.Parse(args)
	if *sa.in == "" || *out == "" {
		return fmt.Errorf("missing -in or -out")
	}
	if *sa.shards != 1 {
		return fmt.Errorf("sort does not support -shards; its splitter and bucket passes parallelize via -workers")
	}
	st, err := opaq.ExternalSort(*sa.in, *out, opaq.SortOptions{
		Buckets: *buckets,
		Config:  opaq.Config{RunLen: *sa.m, SampleSize: *sa.s, Workers: *sa.w},
	})
	if err != nil {
		return err
	}
	fmt.Printf("sorted %d keys into %s via %d partitions (imbalance %.3f)\n",
		st.N, *out, *buckets, st.Imbalance())
	return nil
}

func cmdCheckpoint(args []string) error {
	fs := flag.NewFlagSet("checkpoint", flag.ExitOnError)
	sa := sampleFlags(fs)
	out := fs.String("out", "", "output summary file")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("missing -out")
	}
	_, sum, err := sa.build()
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := opaq.SaveSummaryInt64(f, sum); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("checkpointed summary of %d elements (%d samples) to %s\n",
		sum.N(), sum.SampleCount(), *out)
	return nil
}

func loadSummaryFile(path string) (*opaq.Summary[int64], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return opaq.LoadSummaryInt64(f)
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	a := fs.String("a", "", "first summary file")
	b := fs.String("b", "", "second summary file")
	out := fs.String("out", "", "merged summary file (optional)")
	q := fs.Int("q", 10, "report the q−1 quantiles of the merged summary")
	fs.Parse(args)
	if *a == "" || *b == "" {
		return fmt.Errorf("missing -a or -b")
	}
	sa, err := loadSummaryFile(*a)
	if err != nil {
		return err
	}
	sb, err := loadSummaryFile(*b)
	if err != nil {
		return err
	}
	merged, err := opaq.Merge(sa, sb)
	if err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := opaq.SaveSummaryInt64(f, merged); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("merged: n=%d runs=%d samples=%d\n", merged.N(), merged.Runs(), merged.SampleCount())
	bounds, err := merged.Quantiles(*q)
	if err != nil {
		return err
	}
	for _, bd := range bounds {
		fmt.Printf("phi=%.2f  [%d, %d]\n", bd.Phi, bd.Lower, bd.Upper)
	}
	return nil
}

func cmdCDF(args []string) error {
	fs := flag.NewFlagSet("cdf", flag.ExitOnError)
	sa := sampleFlags(fs)
	key := fs.Int64("key", 0, "key whose CDF to bound")
	fs.Parse(args)
	_, sum, err := sa.build()
	if err != nil {
		return err
	}
	lo, hi := sum.CDF(*key)
	fmt.Printf("CDF(%d) ∈ [%.4f, %.4f]\n", *key, lo, hi)
	return nil
}
