package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one gated metric; BENCHMARK.json lists the same names,
// units and directions (TestMetricDefsMatchBenchmarkJSON keeps them equal).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the fleet sees. Every workload
// reports every one of them, so each is defined over the workload's own
// operations: requests for the served workloads, whole builds for scan.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"heap_peak_mb", "MiB", "lower"},
}

// perLayer are the traced run's numbers: what each layer costs, how often
// its caches hit, and how trustworthy the run itself was. Each is
// reported by every workload; a layer a workload never enters reads 0.
var perLayer = []metricDef{
	{"client.ingest_p50_ms", "ms", "lower"},
	{"client.ingest_p99_ms", "ms", "lower"},
	{"client.query_p50_ms", "ms", "lower"},
	{"client.query_p99_ms", "ms", "lower"},
	{"client.query_p999_ms", "ms", "lower"},
	{"client.p90_ms", "ms", "lower"},
	{"client.mean_ms", "ms", "lower"},
	{"client.tail_ms", "ms", "lower"},
	{"client.elems_per_s", "keys/s", "higher"},
	{"oracle.rank_err_frac", "frac", "lower"},
	{"opaqclient.encode.self_us_p50", "us", "lower"},
	{"opaqclient.query.self_us_p50", "us", "lower"},
	{"net.client_hop_us_p50", "us", "lower"},
	{"net.relay_hop_us_p50", "us", "lower"},
	{"cluster.coord_ingest.self_us_p50", "us", "lower"},
	{"cluster.coord_ingest.self_us_p99", "us", "lower"},
	{"cluster.coord_query.self_us_p50", "us", "lower"},
	{"cluster.coord_query.self_us_p99", "us", "lower"},
	{"cluster.relay.us_p50", "us", "lower"},
	{"cluster.relay.us_p99", "us", "lower"},
	{"cluster.fetch200.us_p50", "us", "lower"},
	{"cluster.fetch304.us_p50", "us", "lower"},
	{"cluster.fetch.bytes_per_query", "B", "lower"},
	{"cluster.gather.hit_ratio", "frac", "higher"},
	{"cluster.gather.revalidated_ratio", "frac", "higher"},
	{"cluster.gather.shared_per_query", "frac", "higher"},
	{"cluster.gather_cache.bytes", "B", "lower"},
	{"cluster.gather_cache.fill_ratio", "frac", "lower"},
	{"cluster.worker_rpc.retries", "count", "lower"},
	{"cluster.journal.self_us_p50", "us", "lower"},
	{"cluster.journal.self_us_p99", "us", "lower"},
	{"cluster.replay.first_delay_s", "s", "lower"},
	{"cluster.replay.batches_per_s", "1/s", "higher"},
	{"cluster.replay.drain_s", "s", "lower"},
	{"cluster.wal.appends", "count", "lower"},
	{"cluster.wal.replayed", "count", "lower"},
	{"engine.ingest_handler.us_p50", "us", "lower"},
	{"engine.ingest_handler.us_p99", "us", "lower"},
	{"engine.json_ingest_handler.us_p50", "us", "lower"},
	{"engine.summary_handler.us_p50", "us", "lower"},
	{"engine.summary_handler.us_p99", "us", "lower"},
	{"engine.summary304_handler.us_p50", "us", "lower"},
	{"engine.seals", "count", "lower"},
	{"engine.compactions", "count", "lower"},
	{"engine.evicted_epochs", "count", "lower"},
	{"engine.prefix_hit_ratio", "frac", "higher"},
	{"engine.merges_per_query", "frac", "lower"},
	{"runio.read.busy_s", "s", "lower"},
	{"runio.read.mb_per_s", "MiB/s", "higher"},
	{"core.build.self_s", "s", "lower"},
	{"proc.cpu_util", "frac", "lower"},
	{"proc.speed_factor", "ratio", "higher"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_p99_us", "us", "lower"},
	{"proc.alloc_mb_per_s", "MiB/s", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.unlinked_frac", "frac", "lower"},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one run of one workload: what the last output line reports,
// plus everything else measured (Metrics holds gated and ungated values).
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Valid     bool              `json:"valid"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Invalid   []string          `json:"invalid,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are the human-readable extras: the tail percentile's label,
	// the dogfood enclosures and the per-layer attribution table.
	Notes []string `json:"notes,omitempty"`
}

func (r *result) set(name string, v float64, unit string, samples int) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (r *result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// invalid marks a run whose schedule was not kept.
func (r *result) invalid(format string, args ...any) {
	r.Valid = false
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

// atReferenceSpeed scales the gated times of the timed part by the speed
// probe's factor (see speed.go) and records the factor, so a raw time is
// the gated one divided by proc.speed_factor.
func (r *result) atReferenceSpeed(factor float64, probes int) {
	for _, name := range []string{"p50_ms", "cpu_ms_per_op"} {
		if m, ok := r.Metrics[name]; ok {
			m.Value *= factor
			r.Metrics[name] = m
		}
	}
	r.set("proc.speed_factor", factor, "ratio", probes)
}

// setupMetric records setup_s: the median set-up time, at the reference
// speed of the set-up phase.
func setupMetric(r *result, probe *speedProbe, begin time.Time, times []float64) {
	factor, _ := probe.factor(begin, time.Now())
	r.set("setup_s", percentile(sortedCopy(times), 0.5)*factor, "s", len(times))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// gated returns the metrics of defs; missing ones read 0, so the last
// output line always names every gated metric.
func (r *result) gated(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			m = metric{Unit: d.unit}
		}
		out[d.name] = m
	}
	return out
}

// print writes every metric as a table: name, value, unit, samples.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g trace=%v correct=%v valid=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Correct, r.Valid, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %-7s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	for _, s := range r.Notes {
		fmt.Fprintf(w, "  # %s\n", strings.ReplaceAll(s, "\n", "\n  # "))
	}
	for _, s := range r.Invalid {
		fmt.Fprintf(w, "  INVALID %s\n", s)
	}
	for _, s := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", s)
	}
}

// rankOf is the 1-based nearest rank ⌈p·n⌉ (clamped to [1, n]): the same
// rank rule core.Summary.Bounds encloses, so the dogfood check compares
// like with like.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p * float64(n)))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-quantile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// tailPercentiles are the candidates for the reported tail.
var tailPercentiles = []float64{0.5, 0.9, 0.99, 0.999}

// tailPercentile is the highest candidate percentile with at least ten
// samples beyond it; 0 when n is too small for even the median.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-rankOf(p, n) >= 10 {
			best = p
		}
	}
	return best
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// durationsMS converts nanosecond durations to sorted milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procWatch samples the Go runtime over the timed part: the live heap
// every 100 ms, and GC and allocation counters at both ends. Only its own
// goroutine observes the heap between start and finish.
type procWatch struct {
	start    time.Time
	cpu0     time.Duration
	base     []metrics.Sample
	stop     chan struct{}
	done     chan struct{}
	nSamples int
	// peaks holds each whole second's peak live heap; cur is the current
	// second's so far.
	peaks []float64
	cur   uint64
}

// samplesPerPeak is how many 100 ms heap samples make one peak: a second.
const samplesPerPeak = 10

const (
	// mHeap is the heap the last GC found live: what the program needs,
	// without the garbage GOGC lets accumulate between cycles, whose
	// amount depends on when a sample happens to fall.
	mHeap   = "/gc/heap/live:bytes"
	mCycles = "/gc/cycles/total:gc-cycles"
	mAllocs = "/gc/heap/allocs:bytes"
	mPauses = "/sched/pauses/total/gc:seconds"
)

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{{Name: mCycles}, {Name: mAllocs}, {Name: mPauses}}
	metrics.Read(s)
	return s
}

func startProcWatch() *procWatch {
	p := &procWatch{
		start: time.Now(),
		cpu0:  cpuTime(),
		base:  readRuntime(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	p.observe()
	go func() {
		defer close(p.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.observe()
			}
		}
	}()
	return p
}

func (p *procWatch) observe() {
	s := []metrics.Sample{{Name: mHeap}}
	metrics.Read(s)
	p.cur = max(p.cur, s[0].Value.Uint64())
	p.nSamples++
	if p.nSamples%samplesPerPeak == 0 {
		p.peaks = append(p.peaks, float64(p.cur)/(1<<20))
		p.cur = 0
	}
}

// finish stops the sampler and records the proc metrics: the heap peak
// and CPU per op as end-to-end metrics, the rest per layer. The heap peak
// is the median of the per-second peaks: the peak of a whole run hangs on
// whether one GC happened to land while large request bodies were live,
// and moved by 10 % between runs of the same build.
func (p *procWatch) finish(r *result, ops int) {
	close(p.stop)
	<-p.done
	p.observe()
	wall := time.Since(p.start).Seconds()
	cpu := (cpuTime() - p.cpu0).Seconds()
	end := readRuntime()
	if len(p.peaks) == 0 {
		// A run shorter than a second has one partial peak.
		p.peaks = append(p.peaks, float64(p.cur)/(1<<20))
	}
	r.set("heap_peak_mb", percentile(sortedCopy(p.peaks), 0.5), "MiB", p.nSamples)
	r.set("cpu_ms_per_op", cpu*1e3/float64(max(ops, 1)), "ms", ops)
	r.set("proc.cpu_util", cpu/wall/float64(runtime.NumCPU()), "frac", 1)
	r.set("proc.gc_cycles", float64(end[0].Value.Uint64()-p.base[0].Value.Uint64()), "count", 1)
	r.set("proc.alloc_mb_per_s", float64(end[1].Value.Uint64()-p.base[1].Value.Uint64())/(1<<20)/wall, "MiB/s", 1)
	pauses, n := histDeltaQuantile(p.base[2].Value.Float64Histogram(), end[2].Value.Float64Histogram(), 0.99)
	r.set("proc.gc_pause_p99_us", pauses*1e6, "us", n)
}

// histDeltaQuantile returns the q-quantile (a bucket's upper bound) of the
// observations end added over base, and their count.
func histDeltaQuantile(base, end *metrics.Float64Histogram, q float64) (float64, int) {
	var total uint64
	delta := make([]uint64, len(end.Counts))
	for i := range end.Counts {
		delta[i] = end.Counts[i] - base.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0, 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= want {
			hi := end.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = end.Buckets[i]
			}
			return hi, int(total)
		}
	}
	return end.Buckets[len(end.Buckets)-1], int(total)
}
