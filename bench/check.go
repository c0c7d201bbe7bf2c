package main

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"opaq/internal/core"
	"opaq/internal/engine"
)

// bound is one quantile enclosure as the coordinator serves it.
type bound struct {
	Phi      float64 `json:"phi"`
	Rank     int64   `json:"rank"`
	Lower    string  `json:"lower"`
	Upper    string  `json:"upper"`
	MaxBelow int64   `json:"max_below"`
	MaxAbove int64   `json:"max_above"`
}

// checkPhis is the number of quantiles checked per tenant: φ = i/100.
const checkPhis = 99

// checkEnclosures checks each bound against the exact sorted multiset:
// the element of the bound's rank lies in [Lower, Upper], and no more
// elements than MaxBelow / MaxAbove separate it from either bound. It
// returns the largest such separation as a fraction of N.
func checkEnclosures(sorted []int64, bs []bound) (float64, error) {
	n := int64(len(sorted))
	if len(bs) == 0 {
		return 0, fmt.Errorf("no quantiles to check")
	}
	countLE := func(x int64) int64 { return int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > x })) }
	countLT := func(x int64) int64 {
		return int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x }))
	}
	var worst int64
	for _, b := range bs {
		if b.Rank < 1 || b.Rank > n {
			return 0, fmt.Errorf("phi %g: rank %d outside [1, %d]", b.Phi, b.Rank, n)
		}
		lo, err := strconv.ParseInt(b.Lower, 10, 64)
		if err != nil {
			return 0, err
		}
		hi, err := strconv.ParseInt(b.Upper, 10, 64)
		if err != nil {
			return 0, err
		}
		truth := sorted[b.Rank-1]
		if lo > truth || truth > hi {
			return 0, fmt.Errorf("phi %g: [%d, %d] does not enclose rank %d element %d", b.Phi, lo, hi, b.Rank, truth)
		}
		below := max(countLT(truth)-countLE(lo), 0)
		above := max(countLT(hi)-countLE(truth), 0)
		if below > b.MaxBelow || above > b.MaxAbove {
			return 0, fmt.Errorf("phi %g: %d elements below / %d above the true quantile, bounds promise %d / %d",
				b.Phi, below, above, b.MaxBelow, b.MaxAbove)
		}
		worst = max(worst, below, above)
	}
	return float64(worst) / float64(n), nil
}

// summaryBounds turns a summary's 99 quantile enclosures into bounds.
func summaryBounds(s *core.Summary[int64]) ([]bound, error) {
	qs, err := s.Quantiles(checkPhis + 1)
	if err != nil {
		return nil, err
	}
	out := make([]bound, len(qs))
	for i, q := range qs {
		out[i] = bound{Phi: q.Phi, Rank: q.Rank, Lower: strconv.FormatInt(q.Lower, 10),
			Upper: strconv.FormatInt(q.Upper, 10), MaxBelow: q.MaxBelow, MaxAbove: q.MaxAbove}
	}
	return out, nil
}

// checkTenant compares one tenant's served state with the workers and the
// oracle: the coordinator's merged n equals the sum of the owners'
// retained N, and, given the exact sorted keys, 99 quantile enclosures
// hold.
func checkTenant(f *fleet, tenant string, sorted []int64) (float64, error) {
	_, retained := f.engineTotals(tenant)
	st, err := f.stats(tenant)
	if err != nil {
		return 0, err
	}
	if st.Partial {
		return 0, fmt.Errorf("tenant %s: partial stats with the fleet up", tenant)
	}
	if st.N != retained {
		return 0, fmt.Errorf("tenant %s: coordinator merged n=%d, owners retain %d", tenant, st.N, retained)
	}
	if sorted == nil {
		return 0, nil
	}
	var qs struct {
		Quantiles []bound `json:"quantiles"`
		Partial   bool    `json:"partial"`
	}
	if err := f.getJSON(fmt.Sprintf("/t/%s/quantiles?q=%d", tenant, checkPhis+1), &qs); err != nil {
		return 0, err
	}
	if qs.Partial {
		return 0, fmt.Errorf("tenant %s: partial quantiles with the fleet up", tenant)
	}
	frac, err := checkEnclosures(sorted, qs.Quantiles)
	if err != nil {
		return 0, fmt.Errorf("tenant %s: %w", tenant, err)
	}
	return frac, nil
}

// dogfood feeds the latencies into an opaq engine, the structure this
// repository serves, and checks that its enclosures of each percentile
// contain the exact sample percentile the gated metrics report.
func dogfood(r *result, lat []time.Duration, ps ...float64) {
	if len(lat) == 0 {
		return
	}
	eng, err := engine.New[int64](engine.Options{Config: core.Config{RunLen: 1024, SampleSize: 32}, Stripes: 1})
	if err != nil {
		r.fail("dogfood: %v", err)
		return
	}
	defer eng.Close()
	xs := make([]int64, len(lat))
	for i, d := range lat {
		xs[i] = int64(d)
	}
	if err := eng.IngestBatch(xs); err != nil {
		r.fail("dogfood: %v", err)
		return
	}
	slices.Sort(xs)
	for _, p := range ps {
		b, err := eng.Quantile(p)
		if err != nil {
			r.fail("dogfood p%g: %v", 100*p, err)
			continue
		}
		exact := xs[rankOf(p, len(xs))-1]
		r.note("dogfood p%g: engine encloses [%.3f, %.3f] ms, exact %.3f ms (n=%d)",
			100*p, float64(b.Lower)/1e6, float64(b.Upper)/1e6, float64(exact)/1e6, len(xs))
		if b.Lower > exact || exact > b.Upper {
			r.fail("dogfood p%g: [%d, %d] ns misses the exact %d ns", 100*p, b.Lower, b.Upper, exact)
		}
	}
}

// maxLagMS is the generator lag p99 beyond which a run is marked invalid.
const maxLagMS = 2.0

// checkLoad records how late the generator ran and marks the run invalid
// when it ran late or the backlog of due requests grew over the run. An
// invalid run still exits 0: the generator shares the machine's cores
// with the fleet, so a sender waking while the fleet saturates them waits
// for the fleet — a cost its latency from the due time already carries.
// The mark tells a reader the schedule was not kept, not that an answer
// was wrong.
func checkLoad(r *result, ops []op, outs []outcome) {
	lags := make([]time.Duration, len(ops))
	sent := make([]time.Duration, len(ops))
	for i := range ops {
		lags[i] = outs[i].lag(ops[i].due)
		sent[i] = outs[i].sent
	}
	lagMS := durationsMS(lags)
	p99 := percentile(lagMS, 0.99)
	r.set("loadgen.lag_p99_ms", p99, "ms", len(lagMS))
	if p99 > maxLagMS {
		r.invalid("load generator lag p99 %.3f ms exceeds %.1f ms", p99, maxLagMS)
	}
	// Backlog at each op's due time: ops already due but not yet sent.
	slices.Sort(sent)
	backlog := make([]float64, len(ops))
	for i := range ops {
		sentBy := sort.Search(len(sent), func(j int) bool { return sent[j] > ops[i].due })
		backlog[i] = float64(max(i+1-sentBy, 0))
	}
	q := len(ops) / 4
	if q == 0 {
		return
	}
	first, last := mean(backlog[:q]), mean(backlog[len(ops)-q:])
	r.note("backlog of due requests: mean %.2f over the first quarter, %.2f over the last", first, last)
	// An overloaded fleet falls further behind every second; a stall that
	// drains does not double the backlog.
	if last > 2*first+10 {
		r.invalid("backlog grew from %.2f to %.2f due requests over the run", first, last)
	}
}

// opMetrics records the latency and throughput metrics of a schedule.
// In a traced run only the untraced half counts, so tracing never moves
// an end-to-end number.
func opMetrics(r *result, ops []op, outs []outcome, seconds float64) {
	var all, ingest, read []time.Duration
	var keys int64
	partial := 0
	for i := range ops {
		o := &outs[i]
		if o.err != nil {
			r.Failed++
			if r.Failed <= 5 {
				r.fail("%s op %d: %v", ops[i].kind, i, o.err)
			}
			continue
		}
		if o.partial {
			partial++
		}
		if ops[i].kind.isIngest() {
			keys += int64(ops[i].n)
		}
		if r.Trace && ops[i].traced {
			continue
		}
		l := o.latency(ops[i].due)
		all = append(all, l)
		if ops[i].kind.isIngest() {
			ingest = append(ingest, l)
		} else {
			read = append(read, l)
		}
	}
	if partial > 0 {
		r.fail("%d answers were partial with the fleet up", partial)
	}
	r.Attempted = int64(len(ops))
	latencyMetrics(r, all)
	in, rd := durationsMS(ingest), durationsMS(read)
	r.set("client.ingest_p50_ms", percentile(in, 0.5), "ms", len(in))
	r.set("client.ingest_p99_ms", percentile(in, 0.99), "ms", len(in))
	r.set("client.query_p50_ms", percentile(rd, 0.5), "ms", len(rd))
	r.set("client.query_p99_ms", percentile(rd, 0.99), "ms", len(rd))
	r.set("client.query_p999_ms", percentile(rd, 0.999), "ms", len(rd))
	r.set("client.elems_per_s", float64(keys)/seconds, "keys/s", int(keys))
}

// latencyMetrics records the median, 90th percentile, mean and reported
// tail of all, and checks the median and tail with the dogfood engine.
func latencyMetrics(r *result, all []time.Duration) {
	ms := durationsMS(all)
	r.set("p50_ms", percentile(ms, 0.5), "ms", len(ms))
	r.set("client.p90_ms", percentile(ms, 0.9), "ms", len(ms))
	r.set("client.mean_ms", mean(ms), "ms", len(ms))
	tail := tailPercentile(len(ms))
	if tail > 0 {
		r.set("client.tail_ms", percentile(ms, tail), "ms", len(ms))
		r.note("tail: p%g is the highest percentile with at least 10 of %d samples beyond it", 100*tail, len(ms))
		ps := []float64{0.5}
		if tail > 0.5 {
			ps = append(ps, tail)
		}
		dogfood(r, all, ps...)
	}
}
