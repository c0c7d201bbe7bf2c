package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"opaq/internal/cluster"
	"opaq/internal/core"
	"opaq/internal/runio"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// scale multiplies every rate and data size; the tests run at a tiny
	// scale, the benchmark at 1.
	scale float64
	// dir is the run's working directory (journals, run files), removed
	// when the run ends; traced runs write their spans to traces.
	dir    string
	traces string
}

// setups is how often a served run sets up; setup_s is the median.
// scanSetups is scan's count: one of its set-ups takes 0.2 s, and single
// ones ranged over a factor of two within a run.
const (
	setups     = 5
	scanSetups = 15
)

// workload is one traffic mix the benchmark runs; BENCHMARK.json and
// README.md say why each was chosen.
type workload struct {
	name string
	run  func(cfg config) *result
}

var workloads = []workload{
	{"ingest", func(cfg config) *result { return runServed(ingestSpec, cfg) }},
	{"query", func(cfg config) *result { return runServed(querySpec, cfg) }},
	{"tenants", func(cfg config) *result { return runServed(tenantsSpec, cfg) }},
	{"outage", func(cfg config) *result { return runServed(outageSpec, cfg) }},
	{"scan", runScan},
}

// servedSpec describes a workload served by the fleet.
type servedSpec struct {
	name       string
	tenants    int
	tenantName func(i int) string
	tenantCfg  map[string]any
	dist       keyDist
	preload    int // batches per tenant, before the timed part
	preloadN   int // keys per preload batch
	cacheBytes int64
	// verify is how many tenants are checked against the exact oracle at
	// 99 quantiles; 0 checks counts only.
	verify  int
	outage  bool
	streams func(s *servedRun, r *rand.Rand) []stream
}

func one(name string) func(int) string { return func(int) string { return name } }

// scaled applies the run's scale to a rate or size, keeping at least min.
func scaled(v float64, scale float64, min float64) float64 { return max(v*scale, min) }

var ingestSpec = &servedSpec{
	name:       "ingest",
	tenants:    1,
	tenantName: one("window"),
	tenantCfg:  map[string]any{"retain": "last_k", "retain_k": 4, "epoch_max_elems": 1 << 18},
	dist:       uniformKeys,
	preload:    64,
	preloadN:   16384,
	streams: func(s *servedRun, r *rand.Rand) []stream {
		return []stream{
			{scaled(50, s.cfg.scale, 4), s.ingestOp(opIngest, 0, 65536)},
			{scaled(5, s.cfg.scale, 2), func(r *rand.Rand) op {
				if r.Float64() < 0.7 {
					return quantileOp(r, 0)
				}
				return selectivityOp(r, 0)
			}},
		}
	},
}

var querySpec = &servedSpec{
	name:       "query",
	tenants:    1,
	tenantName: one("hot"),
	dist:       uniformKeys,
	preload:    256,
	preloadN:   16384,
	verify:     1,
	streams: func(s *servedRun, r *rand.Rand) []stream {
		return []stream{
			{scaled(2500, s.cfg.scale, 50), func(r *rand.Rand) op {
				switch x := r.Float64(); {
				case x < 0.60:
					return quantileOp(r, 0)
				case x < 0.85:
					return selectivityOp(r, 0)
				case x < 0.95:
					return op{kind: opStats}
				default:
					return op{kind: opSummary}
				}
			}},
			{scaled(2, s.cfg.scale, 1), s.ingestOp(opIngest, 0, 1024)},
		}
	},
}

var tenantsSpec = &servedSpec{
	name:       "tenants",
	tenants:    1000,
	tenantName: func(i int) string { return fmt.Sprintf("t%04d", i) },
	// Small tenants: a run length of 2048 (same step, 64) keeps each of
	// the 4000 stripe buffers (1000 tenants × 2 owners × 2 stripes) at
	// 16 KiB instead of the default's 512 KiB.
	tenantCfg:  map[string]any{"m": 2048, "s": 32},
	dist:       zipfKeys,
	preload:    2,
	preloadN:   4096,
	cacheBytes: 1 << 20,
	verify:     50,
	streams: func(s *servedRun, r *rand.Rand) []stream {
		n := len(s.names)
		perm := r.Perm(n)
		z := rand.NewZipf(r, 1.1, 1, uint64(n-1))
		return []stream{
			{scaled(475, s.cfg.scale, 20), func(r *rand.Rand) op {
				return quantileOp(r, int32(perm[z.Uint64()]))
			}},
			{scaled(25, s.cfg.scale, 2), func(r *rand.Rand) op {
				t := r.IntN(n)
				return s.ingestOp(opIngestJSON, int32(t), 64)(r)
			}},
		}
	},
}

var outageSpec = &servedSpec{
	name:       "outage",
	tenants:    1,
	tenantName: one("durable"),
	dist:       uniformKeys,
	preload:    128,
	preloadN:   8192,
	verify:     1,
	outage:     true,
	streams: func(s *servedRun, r *rand.Rand) []stream {
		return []stream{{scaled(100, s.cfg.scale, 10), s.ingestOp(opIngest, 0, 8192)}}
	},
}

func quantileOp(r *rand.Rand, t int32) op {
	return op{kind: opQuantile, tenant: t, phi: float64(1+r.IntN(999)) / 1000}
}

func selectivityOp(r *rand.Rand, t int32) op {
	a, b := r.Int64N(1<<62), r.Int64N(1<<62)
	if a > b {
		a, b = b, a
	}
	return op{kind: opSelectivity, tenant: t, a: a, b: b}
}

// servedRun is one run of a served workload, in phases: setup, timed,
// check, report. Tests call the phases one by one to plant faults between
// them.
type servedRun struct {
	spec  *servedSpec
	cfg   config
	res   *result
	tr    *tracer
	f     *fleet
	names []string
	// next is each tenant's next batch index: preload batches come first.
	next  []int32
	ops   []op
	outs  []outcome
	probe *speedProbe
	// from and to bound the timed part, for the speed probe.
	from, to  time.Time
	resumedAt int64
	before    coordStats
	engBefore engineCounters
}

type engineCounters struct{ seals, compactions, evicted, merges, prefixHits int64 }

func (s *servedRun) engineCounters() engineCounters {
	st := s.f.engineStats()
	return engineCounters{st.SealedEpochs, st.Compactions, st.EvictedEpochs, st.Merges, st.PrefixHits}
}

// ingestOp returns a stream step producing ingests of n keys to tenant t,
// each the tenant's next batch.
func (s *servedRun) ingestOp(kind opKind, t int32, n int) func(*rand.Rand) op {
	return func(*rand.Rand) op {
		b := s.next[t]
		s.next[t]++
		return op{kind: kind, tenant: t, batch: b, n: int32(n)}
	}
}

func runServed(spec *servedSpec, cfg config) *result {
	s := newServedRun(spec, cfg)
	defer s.close()
	if err := s.setup(); err != nil {
		s.res.fail("setup: %v", err)
		return s.res
	}
	if err := s.timed(); err != nil {
		s.res.fail("timed part: %v", err)
		return s.res
	}
	s.check()
	s.report()
	return s.res
}

func newServedRun(spec *servedSpec, cfg config) *servedRun {
	n := spec.tenants
	if n > 1 {
		n = int(scaled(float64(n), cfg.scale, 4))
	}
	s := &servedRun{
		spec:  spec,
		cfg:   cfg,
		res:   &result{Workload: spec.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Valid: true},
		next:  make([]int32, n),
		probe: startSpeedProbe(),
	}
	for i := 0; i < n; i++ {
		s.names = append(s.names, spec.tenantName(i))
		s.next[i] = int32(s.preloadBatches())
	}
	return s
}

func (s *servedRun) preloadBatches() int { return int(scaled(float64(s.spec.preload), s.cfg.scale, 2)) }

func (s *servedRun) close() {
	if s.f != nil {
		s.f.close()
	}
	s.probe.close()
}

// setup boots the fleet, creates the tenants and preloads them, several
// times; the last fleet is kept and setup_s is the median.
func (s *servedRun) setup() error {
	var times []float64
	begin := time.Now()
	for rep := 0; rep < setups; rep++ {
		if s.f != nil {
			s.f.close()
			s.f = nil
		}
		dir := filepath.Join(s.cfg.dir, fmt.Sprintf("fleet%d", rep))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if s.cfg.trace {
			s.tr = newTracer()
		}
		start := time.Now()
		f, err := startFleet(dir, s.spec.cacheBytes, s.tr)
		if err != nil {
			return err
		}
		s.f = f
		var keys []int64
		for i, name := range s.names {
			if err := f.createTenant(name, s.spec.tenantCfg); err != nil {
				return err
			}
			for b := 0; b < s.preloadBatches(); b++ {
				keys = batchKeys(keys, s.cfg.seed, i, b, s.spec.preloadN, s.spec.dist)
				if err := f.postFrame(name, keys); err != nil {
					return err
				}
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	setupMetric(s.res, s.probe, begin, times)
	return nil
}

// timed runs the schedule (and, for outage, the partition) with the proc
// sampler on, then waits for the journal to drain.
func (s *servedRun) timed() error {
	var err error
	if s.before, err = s.f.stats(s.names[0]); err != nil {
		return err
	}
	s.engBefore = s.engineCounters()
	s.ops = buildSchedule(s.cfg.seed, s.cfg.seconds, func(r *rand.Rand) []stream { return s.spec.streams(s, r) })
	// A short lead lets both senders reach their first sleep before the
	// first op is due.
	l := &loadRun{base: s.f.coordURL, tenants: s.names, seed: s.cfg.seed, dist: s.spec.dist, tr: s.tr,
		epoch: time.Now().Add(20 * time.Millisecond)}
	watch := startProcWatch()
	s.from = time.Now()
	partition := make(chan error, 1)
	if s.spec.outage {
		go func() { partition <- s.partition(l.epoch) }()
	} else {
		partition <- nil
	}
	s.outs = l.run(s.ops)
	err = <-partition
	s.to = time.Now()
	watch.finish(s.res, len(s.ops))
	if err != nil {
		return err
	}
	return s.drain()
}

// partition closes both owners' listeners from 25 % to 50 % of the run,
// then reopens them on the same addresses. About a third of the batches
// are journaled, so the median stays among the direct ones.
func (s *servedRun) partition(epoch time.Time) error {
	span := time.Duration(s.cfg.seconds * float64(time.Second))
	var owners []*worker
	for _, url := range s.f.coord.Owners(s.names[0]) {
		owners = append(owners, s.f.workerByURL(url))
	}
	time.Sleep(time.Until(epoch.Add(span / 4)))
	for _, w := range owners {
		if err := w.pause(); err != nil {
			return err
		}
	}
	time.Sleep(time.Until(epoch.Add(span / 2)))
	if s.tr != nil {
		s.resumedAt = s.tr.now()
	}
	for _, w := range owners {
		if err := w.resume(); err != nil {
			return err
		}
	}
	return nil
}

// drain waits until the journal is empty and every acknowledged key has
// reached a worker.
func (s *servedRun) drain() error {
	if !s.spec.outage {
		return nil
	}
	want := s.ackedKeys()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := s.f.stats(s.names[0])
		n, _ := s.f.engineTotals(s.names[0])
		if err == nil && st.WAL.PendingBytes == 0 && n >= want[0] {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("journal not drained after 60 s: %d of %d keys on the workers", n, want[0])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// ackedKeys counts each tenant's acknowledged keys: preload plus every
// ingest that succeeded (journaled ones included).
func (s *servedRun) ackedKeys() []int64 {
	out := make([]int64, len(s.names))
	for i := range out {
		out[i] = int64(s.preloadBatches()) * int64(s.spec.preloadN)
	}
	for i, o := range s.ops {
		if o.kind.isIngest() && s.outs[i].err == nil {
			out[o.tenant] += int64(o.n)
		}
	}
	return out
}

// oracle regenerates tenant t's acknowledged keys from the seed and the
// acked batch indices, sorted.
func (s *servedRun) oracle(t int) []int64 {
	var keys, buf []int64
	for b := 0; b < s.preloadBatches(); b++ {
		buf = batchKeys(buf, s.cfg.seed, t, b, s.spec.preloadN, s.spec.dist)
		keys = append(keys, buf...)
	}
	for i, o := range s.ops {
		if o.kind.isIngest() && int(o.tenant) == t && s.outs[i].err == nil {
			buf = batchKeys(buf, s.cfg.seed, t, int(o.batch), int(o.n), s.spec.dist)
			keys = append(keys, buf...)
		}
	}
	slices.Sort(keys)
	return keys
}

// check runs the correctness checks against the fleet's final state.
func (s *servedRun) check() {
	r := s.res
	opMetrics(r, s.ops, s.outs, s.cfg.seconds)
	checkLoad(r, s.ops, s.outs)
	// The workers' lifetime N must equal the acknowledged keys: a batch
	// applied twice, or acked and lost, shows here.
	acked := s.ackedKeys()
	for t, name := range s.names {
		if n, _ := s.f.engineTotals(name); n != acked[t] {
			r.fail("tenant %s: workers absorbed %d keys, %d were acknowledged", name, n, acked[t])
		}
	}
	checked := []int{0}
	if s.spec.verify > 1 {
		rr := rand.New(rand.NewPCG(s.cfg.seed, 0x636865636b))
		checked = rr.Perm(len(s.names))[:min(s.spec.verify, len(s.names))]
		sort.Ints(checked)
	}
	var worst float64
	for _, t := range checked {
		var sorted []int64
		if s.spec.verify > 0 {
			sorted = s.oracle(t)
		}
		frac, err := checkTenant(s.f, s.names[t], sorted)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		worst = max(worst, frac)
	}
	if s.spec.verify > 0 {
		r.set("oracle.rank_err_frac", worst, "frac", len(checked)*checkPhis)
	}
	r.atReferenceSpeed(s.probe.factor(s.from, s.to))
}

// report records the counter deltas and, in a traced run, the per-layer
// span metrics.
func (s *servedRun) report() {
	r := s.res
	after, err := s.f.stats(s.names[0])
	if err != nil {
		r.fail("stats: %v", err)
		return
	}
	reads := 0
	readTenants := map[int32]bool{}
	for _, o := range s.ops {
		if !o.kind.isIngest() {
			reads++
			readTenants[o.tenant] = true
		}
	}
	g0, g1 := s.before.GatherCache, after.GatherCache
	gathers := (g1.Hits - g0.Hits) + (g1.Misses - g0.Misses)
	r.set("cluster.gather.hit_ratio", ratio(g1.Hits-g0.Hits, gathers), "frac", int(gathers))
	r.set("cluster.gather.revalidated_ratio", ratio(g1.Revalidated-g0.Revalidated, spread*gathers), "frac", int(spread*gathers))
	r.set("cluster.gather.shared_per_query", ratio(g1.Singleflight-g0.Singleflight, int64(reads)), "frac", reads)
	budget := s.spec.cacheBytes
	if budget == 0 {
		budget = cluster.DefaultGatherCacheBytes
	}
	r.set("cluster.gather_cache.bytes", float64(g1.Bytes), "B", int(g1.Tenants))
	r.set("cluster.gather_cache.fill_ratio", float64(g1.Bytes)/float64(budget), "frac", int(g1.Tenants))
	if g1.Tenants > 0 {
		ws := float64(g1.Bytes) / float64(g1.Tenants) * float64(len(readTenants))
		r.note("gather cache: %d merged summaries resident in %d of %d bytes; the %d tenants read need about %.1f times the budget",
			g1.Tenants, g1.Bytes, budget, len(readTenants), ws/float64(budget))
	}
	r.set("cluster.wal.appends", float64(after.WAL.Appends-s.before.WAL.Appends), "count", 1)
	r.set("cluster.wal.replayed", float64(after.WAL.Replayed-s.before.WAL.Replayed), "count", 1)
	e0, e1 := s.engBefore, s.engineCounters()
	r.set("engine.seals", float64(e1.seals-e0.seals), "count", 1)
	r.set("engine.compactions", float64(e1.compactions-e0.compactions), "count", 1)
	r.set("engine.evicted_epochs", float64(e1.evicted-e0.evicted), "count", 1)
	r.set("engine.prefix_hit_ratio", ratio(e1.prefixHits-e0.prefixHits, e1.merges-e0.merges), "frac", int(e1.merges-e0.merges))
	r.set("engine.merges_per_query", ratio(e1.merges-e0.merges, int64(reads)), "frac", reads)
	if s.tr != nil {
		s.tr.report(r, s.ops, s.outs, s.resumedAt)
		if err := s.tr.write(filepath.Join(s.cfg.traces, "trace-"+s.spec.name+".jsonl")); err != nil {
			r.fail("writing spans: %v", err)
		}
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// scanConfig is the paper's sample phase as the fleet runs it: m = 65 536,
// s = 1 024, two sampling workers behind a prefetching reader.
var scanConfig = core.Config{RunLen: 1 << 16, SampleSize: 1 << 10, Workers: 2}

// scanKeys is the run file's size: 4 Mi Zipf keys, 32 MiB, so a 10 s run
// holds about 60 builds.
const scanKeys = 4 << 20

// runScan is the scan workload: one-pass builds over a run file, back to
// back for the run's duration.
func runScan(cfg config) *result {
	r := &result{Workload: "scan", Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Valid: true}
	probe := startSpeedProbe()
	defer probe.close()
	n := int(scaled(scanKeys, cfg.scale, 1<<16))
	keys := make([]int64, n)
	path := filepath.Join(cfg.dir, "scan.run")
	var times []float64
	begin := time.Now()
	for rep := 0; rep < scanSetups; rep++ {
		start := time.Now()
		scanFileKeys(keys, cfg.seed)
		if err := runio.WriteFile(path, runio.Int64Codec{}, keys); err != nil {
			r.fail("setup: %v", err)
			return r
		}
		times = append(times, time.Since(start).Seconds())
	}
	setupMetric(r, probe, begin, times)
	ds, err := runio.OpenFile(path, runio.Int64Codec{})
	if err != nil {
		r.fail("setup: %v", err)
		return r
	}

	watch := startProcWatch()
	from := time.Now()
	// A traced run wraps the reader of every other build; the builds in
	// between give the end-to-end numbers and the tracing overhead.
	var builds, plain, traced, busy []time.Duration
	var first *core.Summary[int64]
	var readBytes int64
	end := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(builds) < 3 || time.Now().Before(end) {
		rr, err := ds.Runs(scanConfig.RunLen)
		if err != nil {
			r.fail("build %d: %v", len(builds), err)
			r.Failed++
			break
		}
		var tr *timedReader
		if cfg.trace && len(builds)%2 == 0 {
			tr = &timedReader{RunReader: rr}
			rr = tr
		}
		start := time.Now()
		sum, err := core.Build(rr, scanConfig)
		took := time.Since(start)
		builds = append(builds, took)
		if err != nil {
			r.fail("build %d: %v", len(builds), err)
			r.Failed++
			break
		}
		if tr != nil {
			traced = append(traced, took)
			busy = append(busy, tr.busy)
			readBytes += tr.bytes
		} else {
			plain = append(plain, took)
		}
		if first == nil {
			first = sum
		} else if !slices.Equal(first.Samples(), sum.Samples()) || first.N() != sum.N() {
			r.fail("build %d: summary differs from the first build's", len(builds))
		}
	}
	to := time.Now()
	watch.finish(r, len(builds))
	r.Attempted = int64(len(builds))
	latencyMetrics(r, plain)
	r.atReferenceSpeed(probe.factor(from, to))
	med := percentile(durationsMS(plain), 0.5) / 1e3
	if med > 0 {
		r.set("client.elems_per_s", float64(n)/med, "keys/s", len(plain))
	}
	if len(traced) > 0 && med > 0 {
		tracedMed := percentile(durationsMS(traced), 0.5) / 1e3
		busyS := percentile(durationsMS(busy), 0.5) / 1e3
		r.set("runio.read.busy_s", busyS, "s", len(busy))
		r.set("runio.read.mb_per_s", float64(readBytes)/float64(len(busy))/(1<<20)/max(busyS, 1e-9), "MiB/s", len(busy))
		r.set("core.build.self_s", tracedMed-busyS, "s", len(busy))
		r.set("trace.overhead_pct", 100*(tracedMed-med)/med, "%", len(traced))
	}
	if first != nil {
		slices.Sort(keys)
		bs, err := summaryBounds(first)
		if err == nil {
			var frac float64
			frac, err = checkEnclosures(keys, bs)
			r.set("oracle.rank_err_frac", frac, "frac", len(bs))
		}
		if err != nil {
			r.fail("scan: %v", err)
		}
	}
	return r
}

// scanFileKeys fills keys with the run file's Zipf keys, 64 Ki-key batches
// shared round-robin by one goroutine per build worker. Generated on one
// goroutine, set-up time followed the speed of whichever vCPU it ran on
// and moved by 20 % between runs of one build.
func scanFileKeys(keys []int64, seed uint64) {
	const batch = 1 << 16
	var wg sync.WaitGroup
	for w := 0; w < scanConfig.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := w * batch; lo < len(keys); lo += scanConfig.Workers * batch {
				hi := min(lo+batch, len(keys))
				batchKeys(keys[lo:lo:hi], seed, 0, lo/batch, hi-lo, zipfKeys)
			}
		}(w)
	}
	wg.Wait()
}

// timedReader times the reads core.Build pulls from the run file; Build
// calls NextRun from its prefetching goroutine, so busy is read-and-decode
// time that may overlap sampling.
type timedReader struct {
	runio.RunReader[int64]
	busy  time.Duration
	bytes int64
}

func (t *timedReader) NextRun() ([]int64, error) {
	start := time.Now()
	run, err := t.RunReader.NextRun()
	t.busy += time.Since(start)
	t.bytes += int64(len(run)) * 8
	return run, err
}
