package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func tinyConfig(t *testing.T, trace bool) config {
	return config{seed: 7, seconds: 0.7, trace: trace, scale: 0.01, dir: t.TempDir(), traces: t.TempDir()}
}

// TestWorkloadsTinyScale runs every workload end to end at a tiny scale
// with every check on, so a change that breaks the benchmark fails here.
func TestWorkloadsTinyScale(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && w.name != "outage" && w.name != "query" && w.name != "scan" {
				continue
			}
			res := w.run(tinyConfig(t, trace))
			if len(res.Failures) > 0 {
				t.Errorf("%s trace=%v: %v", w.name, trace, res.Failures)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s: attempted %d, failed %d", w.name, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for name, m := range res.gated(defs) {
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, name, m.Value)
				}
			}
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "coord.query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "rpc.fetch", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "rpc.fetch", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "rpc.other", Start: 90, End: 120}, // ends past its parent
	}
	st := newSpanTree(spans)
	// Children cover [10, 70] and [90, 100]: 70 of the parent's 100.
	if got := st.self(0); got != 30 {
		t.Errorf("self = %d, want 30", got)
	}
	into := map[string]float64{}
	st.attribute(0, into)
	want := map[string]float64{"cluster.coord_query": 30, "net.relay_hop": 70}
	if !reflect.DeepEqual(into, want) {
		t.Errorf("attribution %v, want %v", into, want)
	}
	// The overlap [30, 50] is shared equally by the two fetches.
	into = map[string]float64{}
	newSpanTree(spans[:2]).attribute(0, into)
	if into["net.relay_hop"] != 40 || into["cluster.coord_query"] != 60 {
		t.Errorf("single child attribution %v", into)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := []float64{1, 2, 3, 4}
	if percentile(sorted, 0.5) != 2 || percentile(sorted, 0.51) != 3 || percentile(sorted, 1) != 4 {
		t.Errorf("nearest-rank percentiles wrong")
	}
}

func TestScheduleDeterministic(t *testing.T) {
	sched := func(spec *servedSpec, seed uint64) []op {
		s := newServedRun(spec, config{seed: seed, seconds: 2, scale: 0.05})
		defer s.close()
		return buildSchedule(seed, 2, func(r *rand.Rand) []stream { return spec.streams(s, r) })
	}
	for _, spec := range []*servedSpec{ingestSpec, querySpec, tenantsSpec, outageSpec} {
		a, b := sched(spec, 3), sched(spec, 3)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different schedules", spec.name)
		}
		if reflect.DeepEqual(a, sched(spec, 4)) {
			t.Errorf("%s: different seeds gave the same schedule", spec.name)
		}
	}
	if !slices.Equal(batchKeys(nil, 3, 1, 5, 100, zipfKeys), batchKeys(nil, 3, 1, 5, 100, zipfKeys)) {
		t.Errorf("batch keys are not a function of (seed, tenant, batch)")
	}
}

// tinyQueryRun runs the query workload's setup and timed part.
func tinyQueryRun(t *testing.T) *servedRun {
	t.Helper()
	s := newServedRun(querySpec, tinyConfig(t, false))
	t.Cleanup(s.close)
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	if err := s.timed(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestChecksCatchDoctoredOracle(t *testing.T) {
	s := tinyQueryRun(t)
	sorted := s.oracle(0)
	if _, err := checkTenant(s.f, s.names[0], sorted); err != nil {
		t.Fatalf("honest oracle rejected: %v", err)
	}
	doctored := slices.Clone(sorted)
	for i := range doctored[len(doctored)/2:] {
		doctored[len(doctored)/2+i] += 1 << 60
	}
	if _, err := checkTenant(s.f, s.names[0], doctored); err == nil {
		t.Fatal("a doctored oracle passed the enclosure check")
	}
}

func TestChecksCatchDuplicatedBatch(t *testing.T) {
	s := tinyQueryRun(t)
	var dup []int64
	dup = batchKeys(dup, s.cfg.seed, 0, 0, s.spec.preloadN, s.spec.dist)
	if err := s.f.postFrame(s.names[0], dup); err != nil {
		t.Fatal(err)
	}
	s.check()
	found := false
	for _, f := range s.res.Failures {
		found = found || strings.Contains(f, "acknowledged")
	}
	if !found {
		t.Fatalf("a batch applied twice passed the checks: %v", s.res.Failures)
	}
}

func TestCheckEnclosures(t *testing.T) {
	sorted := []int64{1, 2, 2, 3, 5, 8, 13}
	ok := []bound{{Phi: 0.5, Rank: 4, Lower: "2", Upper: "5", MaxBelow: 1, MaxAbove: 0}}
	if frac, err := checkEnclosures(sorted, ok); err != nil || frac != 0 {
		t.Errorf("exact-enough bound: frac %v err %v", frac, err)
	}
	for _, b := range []bound{
		{Phi: 0.5, Rank: 4, Lower: "4", Upper: "5", MaxAbove: 1},              // misses the true 3
		{Phi: 0.5, Rank: 4, Lower: "1", Upper: "5", MaxBelow: 1, MaxAbove: 1}, // 2, 2 between 1 and 3
		{Phi: 0.5, Rank: 9, Lower: "1", Upper: "5"},                           // rank beyond N
	} {
		if _, err := checkEnclosures(sorted, []bound{b}); err == nil {
			t.Errorf("bound %+v passed", b)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{scaled(0.8), "lower", "improved"},
		{scaled(1.2), "lower", "worse"},
		{scaled(1.02), "lower", "unchanged"},
		{scaled(1.2), "higher", "improved"},
	} {
		if got := verdict(base, c.b, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.b[0], c.better, got, c.want)
		}
	}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	if got := verdict(noisy, slices.Clone(noisy), "lower", 0.1); got != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", got)
	}
}

// TestMetricDefsMatchBenchmarkJSON keeps the program's metric lists and
// the benchmark definition at the repository root in step.
func TestMetricDefsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []specMetric) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in the program, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			g := got[i]
			if d.name != g.Name || d.unit != g.Unit || d.better != g.Better {
				t.Errorf("%s %d: program %+v, BENCHMARK.json %+v", kind, i, d, g)
			}
			if kind == "end_to_end" && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, want)
	}
}
