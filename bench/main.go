// Command bench is the repository's end-to-end benchmark: one process
// starts three workers and a coordinator on loopback listeners and drives
// them from a seeded open-loop schedule through opaqclient, times every
// request from when it was due, and checks every answer it can against an
// exact oracle. See README.md in this directory.
//
//	bash bench/run.sh --workload query --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -seed 1                  # every workload
//	bash bench/run.sh -compare base/ change/   # two sets of -json results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+" or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of each workload's timed part")
	trace := fs.Int("trace", 0, "1 runs with spans at every layer and reports the per-layer metrics")
	jsonOut := fs.String("json", "", "also write the full results, every metric included, to this file")
	compare := fs.Bool("compare", false, "compare two sets of -json results: -compare A B, each a directory or a comma-separated list of files")
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	dir := fs.String("dir", ".bench_build", "directory for journals, run files and span traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result sets")
			return 2
		}
		return compareMain(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -help")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *only == "all" || *only == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *only)
		return 2
	}

	var results []*result
	for _, w := range selected {
		cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1,
			dir: filepath.Join(*dir, "work-"+w.name), traces: *dir}
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		res := w.run(cfg)
		if err := os.RemoveAll(cfg.dir); err != nil {
			res.fail("removing %s: %v", cfg.dir, err)
		}
		res.Correct = len(res.Failures) == 0
		res.print(stdout)
		results = append(results, res)
	}
	if *jsonOut != "" {
		var v any = results
		if len(results) == 1 {
			v = results[0]
		}
		buf, err := json.MarshalIndent(v, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", *jsonOut, err)
			return 1
		}
	}

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range results {
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for name, m := range res.gated(defs) {
			if len(results) > 1 {
				name = res.Workload + "." + name
			}
			line.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(buf))
	if !line.Correct {
		return 1
	}
	return 0
}
