package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// specMetric is one end-to-end metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	err = json.Unmarshal(buf, &s)
	return s, err
}

// loadResults reads a result set: a directory of -json files (sorted by
// name) or a comma-separated list of them. A file holds one result or a
// list of them.
func loadResults(set string) ([]*result, error) {
	var files []string
	if st, err := os.Stat(set); err == nil && st.IsDir() {
		matches, err := filepath.Glob(filepath.Join(set, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(matches)
		files = matches
	} else {
		files = strings.Split(set, ",")
	}
	var out []*result
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var many []*result
		if err := json.Unmarshal(buf, &many); err != nil {
			var one result
			if err := json.Unmarshal(buf, &one); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			many = []*result{&one}
		}
		out = append(out, many...)
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// with the rule Python's statistics.quantiles(xs, n=4) and
// statistics.median use, so spreads read the same here and there.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := sortedCopy(xs)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// verdict labels a metric from paired runs of a parent (a) and a change
// (b), in run order, by the rule of choosing-metrics §6–§8: improved only
// when the change wins at least nine of every ten of at least ten pairs
// and the medians differ by more than the parent's quartile spread;
// unresolved when that spread exceeds the bound, unless every change run
// beats every parent run; worse when the median moved the wrong way by
// more than the bound.
func verdict(a, b []float64, better string, bound float64) string {
	sign := 1.0 // +1: lower is better
	if better == "higher" {
		sign = -1
	}
	q1, medA, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	if pairs >= 10 && 10*wins >= 9*pairs && math.Abs(medB-medA) > q3-q1 && sign*(medB-medA) < 0 {
		return "improved"
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	if medA != 0 && (q3-q1)/math.Abs(medA) > bound && !allBetter {
		return "unresolved"
	}
	if medA != 0 && sign*(medB-medA)/math.Abs(medA) > bound {
		return "worse"
	}
	return "unchanged"
}

// compareMain prints, per workload and end-to-end metric, each side's
// median and quartiles, their spread against the bound, and a verdict.
func compareMain(specPath, setA, setB string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	ra, err := loadResults(setA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	rb, err := loadResults(setB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	values := func(rs []*result, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var order []string
	seen := map[string]bool{}
	for _, r := range ra {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			order = append(order, r.Workload)
		}
	}
	fmt.Fprintf(stdout, "%-8s %-14s %6s  %-31s %-31s %s\n", "workload", "metric", "bound",
		"A median [q1, q3] spread", "B median [q1, q3] spread", "verdict")
	for _, w := range order {
		for _, m := range spec.EndToEnd {
			a, b := values(ra, w, m.Name), values(rb, w, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			fmt.Fprintf(stdout, "%-8s %-14s %5.0f%%  %-31s %-31s %s\n", w, m.Name, 100*m.Bound,
				side(a), side(b), verdict(a, b, m.Better, m.Bound))
		}
	}
	return 0
}

func side(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	spread := 0.0
	if med != 0 {
		spread = (q3 - q1) / math.Abs(med)
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g] %4.1f%%", med, q1, q3, 100*spread)
}
