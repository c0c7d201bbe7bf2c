package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing wraps each layer's public entry point from the benchmark's own
// files: the client transport (opaqclient.Options.HTTPClient), the
// coordinator handler, the coordinator's worker transport
// (WorkerClient.HTTP) and the worker handlers. Spans carry their parent's
// ID across hops in two headers.
const (
	hdrParent = "X-Bench-Parent"
	hdrReq    = "X-Bench-Req"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Tenant string `json:"tenant,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Status int    `json:"status,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// spanRef identifies the span a request runs under; traced is false for
// the untraced half of the schedule.
type spanRef struct {
	id, req int64
	traced  bool
}

type ctxKey struct{}

// rpcKey identifies one logical worker call: WorkerClient retries reuse
// the caller's context and URL.
type rpcKey struct {
	ctx         context.Context
	method, url string
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
	// open lists each tenant's coordinator reads in flight, oldest first:
	// a gather leader runs under the coordinator's lifetime context, so
	// its fetches are linked through this list.
	open map[string][]spanRef
	// links counts how every worker fetch found its parent.
	links map[string]int
	// failed holds logical worker calls whose last attempt failed; the
	// next attempt of the same call is a retry.
	failed  map[rpcKey]struct{}
	retries int64
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		open:   map[string][]spanRef{},
		links:  map[string]int{},
		failed: map[rpcKey]struct{}{},
	}
}

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) now() int64 { return t.at(time.Now()) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parsePath splits a route into tenant and route name: /t/{tenant}/quantile
// or the default tenant's /quantile.
func parsePath(p string) (tenant, route string) {
	if rest, ok := strings.CutPrefix(p, "/t/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			return rest[:i], rest[i+1:]
		}
		return rest, ""
	}
	return "default", strings.TrimPrefix(p, "/")
}

func isRead(method, route string) bool {
	if method != http.MethodGet {
		return false
	}
	switch route {
	case "quantile", "quantiles", "selectivity", "stats", "summary":
		return true
	}
	return false
}

func parentOf(h http.Header) (parent, req int64) {
	parent, _ = strconv.ParseInt(h.Get(hdrParent), 10, 64)
	req, _ = strconv.ParseInt(h.Get(hdrReq), 10, 64)
	return parent, req
}

// statusWriter records the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// spanBody ends an RPC span when its caller closes the response body, so
// the span covers reading the answer too.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	sp   span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	atomic.AddInt64(&b.sp.Bytes, int64(n))
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(func() {
		b.sp.End = b.t.now()
		b.sp.Bytes = atomic.LoadInt64(&b.sp.Bytes)
		b.t.add(b.sp)
	})
	return b.ReadCloser.Close()
}

// clientRT is one sender's client transport. The sender sets cur before
// each op and runs the op on its own goroutine, which is the goroutine
// http.Client calls RoundTrip on.
type clientRT struct {
	base http.RoundTripper
	t    *tracer
	cur  spanRef
}

func (c *clientRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !c.cur.traced {
		return c.base.RoundTrip(req)
	}
	sp := span{ID: c.t.newID(), Parent: c.cur.id, Req: c.cur.req, Name: "client.rtt", Start: c.t.now()}
	r2 := req.Clone(req.Context())
	r2.Header.Set(hdrParent, strconv.FormatInt(sp.ID, 10))
	r2.Header.Set(hdrReq, strconv.FormatInt(sp.Req, 10))
	resp, err := c.base.RoundTrip(r2)
	if err != nil {
		sp.End = c.t.now()
		c.t.add(sp)
		return nil, err
	}
	sp.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, t: c.t, sp: sp}
	return resp, nil
}

// coordHandler wraps Coordinator.Handler(): it puts the request's span on
// the context (relay RPCs inherit it through the coordinator's request
// context) and tracks open reads for gather linking.
func (t *tracer) coordHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, reqID := parentOf(r.Header)
		ref := spanRef{id: t.newID(), req: reqID, traced: parent != 0}
		tenant, route := parsePath(r.URL.Path)
		read := isRead(r.Method, route)
		if read {
			t.openAdd(tenant, ref)
			defer t.openRemove(tenant, ref.id)
		}
		start := t.now()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), ctxKey{}, ref)))
		if !ref.traced {
			return
		}
		name := "coord.other"
		switch {
		case read:
			name = "coord.query"
		case r.Method == http.MethodPost && route == "ingest":
			name = "coord.ingest"
			if sw.status == http.StatusAccepted {
				name = "coord.journal"
			}
		}
		t.add(span{ID: ref.id, Parent: parent, Req: reqID, Name: name, Tenant: tenant,
			Start: start, End: t.now(), Status: sw.status})
	})
}

func (t *tracer) openAdd(tenant string, ref spanRef) {
	t.mu.Lock()
	t.open[tenant] = append(t.open[tenant], ref)
	t.mu.Unlock()
}

func (t *tracer) openRemove(tenant string, id int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	list := t.open[tenant]
	for i, ref := range list {
		if ref.id == id {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(t.open, tenant)
	} else {
		t.open[tenant] = list
	}
}

// linkFetch finds the parent of a fetch issued without a request context:
// the newest open read on the tenant. A gather starts its fetches as soon
// as its leader arrives or finishes waiting on an older flight, and in
// both cases the leader is the newest read in flight. With several reads
// open the link is a guess and counts as ambiguous.
func (t *tracer) linkFetch(tenant string) spanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	list := t.open[tenant]
	switch len(list) {
	case 0:
		t.links["none"]++
		return spanRef{traced: true}
	case 1:
		t.links["open"]++
	default:
		t.links["ambiguous"]++
	}
	return list[len(list)-1]
}

// rpcRT wraps the coordinator's worker transport.
type rpcRT struct {
	base http.RoundTripper
	t    *tracer
}

func (t *tracer) rpcTransport(base http.RoundTripper) http.RoundTripper {
	return &rpcRT{base: base, t: t}
}

func (r *rpcRT) RoundTrip(req *http.Request) (*http.Response, error) {
	t := r.t
	tenant, route := parsePath(req.URL.Path)
	name := "rpc.other"
	switch {
	case req.Method == http.MethodPost && route == "ingest":
		name = "rpc.relay"
	case req.Method == http.MethodGet && route == "summary":
		name = "rpc.fetch"
	}
	ref, ok := req.Context().Value(ctxKey{}).(spanRef)
	switch {
	case ok:
		if name == "rpc.fetch" {
			t.mu.Lock()
			t.links["ctx"]++
			t.mu.Unlock()
		}
	case name == "rpc.fetch":
		ref = t.linkFetch(tenant)
	case name == "rpc.relay":
		// Relays without a request context are the journal's replayer.
		name, ref = "rpc.replay", spanRef{traced: true}
	default:
		ref = spanRef{traced: true}
	}
	key := rpcKey{ctx: req.Context(), method: req.Method, url: req.URL.String()}
	t.mu.Lock()
	if _, ok := t.failed[key]; ok {
		t.retries++
	}
	t.mu.Unlock()

	var sp span
	if ref.traced {
		sp = span{ID: t.newID(), Parent: ref.id, Req: ref.req, Name: name, Tenant: tenant, Start: t.now()}
		r2 := req.Clone(req.Context())
		r2.Header.Set(hdrParent, strconv.FormatInt(sp.ID, 10))
		r2.Header.Set(hdrReq, strconv.FormatInt(sp.Req, 10))
		req = r2
	}
	resp, err := r.base.RoundTrip(req)
	failed := err != nil
	if err == nil {
		switch resp.StatusCode {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			failed = true
		}
	}
	t.mu.Lock()
	if failed {
		t.failed[key] = struct{}{}
	} else {
		delete(t.failed, key)
	}
	t.mu.Unlock()
	if !ref.traced {
		return resp, err
	}
	if err != nil {
		sp.End = t.now()
		t.add(sp)
		return nil, err
	}
	sp.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, sp: sp}
	return resp, nil
}

// workerHandler wraps a worker's registry handler; only requests carrying
// a parent span are recorded.
func (t *tracer) workerHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, reqID := parentOf(r.Header)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		tenant, route := parsePath(r.URL.Path)
		name := "worker.other"
		switch {
		case r.Method == http.MethodPost && route == "ingest":
			name = "worker.json_ingest"
			if strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream") {
				name = "worker.ingest"
			}
		case r.Method == http.MethodGet && route == "summary":
			name = "worker.summary"
			if sw.status == http.StatusNotModified {
				name = "worker.summary304"
			}
		}
		t.add(span{ID: t.newID(), Parent: parent, Req: reqID, Name: name, Tenant: tenant,
			Start: start, End: t.now(), Status: sw.status})
	})
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen is the length of the union of ivs clipped to within.
func unionLen(ivs []interval, within interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv.lo, within.lo), min(iv.hi, within.hi)
		if lo < hi {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].lo < clipped[b].lo })
	var total, curLo, curHi int64
	for i, iv := range clipped {
		switch {
		case i == 0:
			curLo, curHi = iv.lo, iv.hi
		case iv.lo > curHi:
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		default:
			curHi = max(curHi, iv.hi)
		}
	}
	if len(clipped) > 0 {
		total += curHi - curLo
	}
	return total
}

// spanTree indexes spans by parent.
type spanTree struct {
	spans    []span
	children map[int64][]int
}

func newSpanTree(spans []span) *spanTree {
	st := &spanTree{spans: spans, children: map[int64][]int{}}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			st.children[p] = append(st.children[p], i)
		}
	}
	return st
}

// self is a span's duration minus the part of it its children cover; the
// two owner fetches of a gather overlap, so the union is subtracted, not
// the sum.
func (st *spanTree) self(i int) int64 {
	s := &st.spans[i]
	kids := st.children[s.ID]
	ivs := make([]interval, len(kids))
	for k, c := range kids {
		ivs[k] = interval{st.spans[c].Start, st.spans[c].End}
	}
	return s.dur() - unionLen(ivs, interval{s.Start, s.End})
}

// attribute splits a root span's wall time among the spans of its tree:
// each instant goes to the deepest spans running then, shared equally
// when several run in parallel. The shares sum to the root's duration,
// which is what lets a per-layer table add up to the client's latency.
func (st *spanTree) attribute(root int, into map[string]float64) {
	type node struct {
		i     int
		iv    interval
		depth int
	}
	nodes := []node{{root, interval{st.spans[root].Start, st.spans[root].End}, 0}}
	for k := 0; k < len(nodes); k++ {
		n := nodes[k]
		for _, c := range st.children[st.spans[n.i].ID] {
			iv := interval{max(st.spans[c].Start, n.iv.lo), min(st.spans[c].End, n.iv.hi)}
			if iv.lo < iv.hi {
				nodes = append(nodes, node{c, iv, n.depth + 1})
			}
		}
	}
	cuts := make([]int64, 0, 2*len(nodes))
	for _, n := range nodes {
		cuts = append(cuts, n.iv.lo, n.iv.hi)
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	active := make([]int, 0, len(nodes))
	for k := 0; k+1 < len(cuts); k++ {
		lo, hi := cuts[k], cuts[k+1]
		if lo == hi {
			continue
		}
		active = active[:0]
		deepest := -1
		for j, n := range nodes {
			if n.iv.lo <= lo && n.iv.hi >= hi {
				switch {
				case n.depth > deepest:
					deepest, active = n.depth, append(active[:0], j)
				case n.depth == deepest:
					active = append(active, j)
				}
			}
		}
		share := float64(hi-lo) / float64(len(active))
		for _, j := range active {
			into[layerOf(st.spans[nodes[j].i].Name)] += share
		}
	}
}

// layerOf maps a span name to the layer its self time belongs to.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "op."):
		return "opaqclient"
	case name == "client.rtt":
		return "net.client_hop"
	case name == "coord.query":
		return "cluster.coord_query"
	case name == "coord.ingest":
		return "cluster.coord_ingest"
	case name == "coord.journal":
		return "cluster.journal"
	case strings.HasPrefix(name, "coord."):
		return "cluster.coord_other"
	case strings.HasPrefix(name, "rpc."):
		return "net.relay_hop"
	case strings.HasPrefix(name, "worker."):
		return "engine." + strings.TrimPrefix(name, "worker.") + "_handler"
	}
	return name
}

// report records the per-layer metrics of a traced run and the
// attribution table, and checks that the table adds up.
func (t *tracer) report(r *result, ops []op, outs []outcome, resumedAt int64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	links := make(map[string]int, len(t.links))
	for k, v := range t.links {
		links[k] = v
	}
	retries := t.retries
	t.mu.Unlock()
	st := newSpanTree(spans)

	selfUS := map[string][]float64{}
	durUS := map[string][]float64{}
	var fetchBytes int64
	var queries int
	var replays []span
	for i := range spans {
		s := &spans[i]
		key := s.Name
		if s.Name == "rpc.fetch" {
			key = fmt.Sprintf("rpc.fetch%d", s.Status)
			fetchBytes += s.Bytes
		}
		if s.Name == "coord.query" {
			queries++
		}
		if s.Name == "rpc.replay" && s.Status > 0 && s.Status < 300 {
			replays = append(replays, *s)
		}
		selfUS[key] = append(selfUS[key], float64(st.self(i))/1e3)
		durUS[key] = append(durUS[key], float64(s.dur())/1e3)
	}
	set := func(name string, m map[string][]float64, key string, p float64) {
		xs := sortedCopy(m[key])
		r.set(name, percentile(xs, p), "us", len(xs))
	}
	set("opaqclient.encode.self_us_p50", selfUS, "op.ingest", 0.5)
	var readSelf []float64
	for _, k := range []opKind{opQuantile, opSelectivity, opStats, opSummary} {
		readSelf = append(readSelf, selfUS["op."+k.String()]...)
	}
	readSelf = sortedCopy(readSelf)
	r.set("opaqclient.query.self_us_p50", percentile(readSelf, 0.5), "us", len(readSelf))
	set("net.client_hop_us_p50", selfUS, "client.rtt", 0.5)
	set("net.relay_hop_us_p50", selfUS, "rpc.relay", 0.5)
	set("cluster.coord_ingest.self_us_p50", selfUS, "coord.ingest", 0.5)
	set("cluster.coord_ingest.self_us_p99", selfUS, "coord.ingest", 0.99)
	set("cluster.coord_query.self_us_p50", selfUS, "coord.query", 0.5)
	set("cluster.coord_query.self_us_p99", selfUS, "coord.query", 0.99)
	set("cluster.relay.us_p50", durUS, "rpc.relay", 0.5)
	set("cluster.relay.us_p99", durUS, "rpc.relay", 0.99)
	set("cluster.fetch200.us_p50", durUS, "rpc.fetch200", 0.5)
	set("cluster.fetch304.us_p50", durUS, "rpc.fetch304", 0.5)
	set("cluster.journal.self_us_p50", selfUS, "coord.journal", 0.5)
	set("cluster.journal.self_us_p99", selfUS, "coord.journal", 0.99)
	set("engine.ingest_handler.us_p50", durUS, "worker.ingest", 0.5)
	set("engine.ingest_handler.us_p99", durUS, "worker.ingest", 0.99)
	set("engine.json_ingest_handler.us_p50", durUS, "worker.json_ingest", 0.5)
	set("engine.summary_handler.us_p50", durUS, "worker.summary", 0.5)
	set("engine.summary_handler.us_p99", durUS, "worker.summary", 0.99)
	set("engine.summary304_handler.us_p50", durUS, "worker.summary304", 0.5)
	r.set("cluster.fetch.bytes_per_query", float64(fetchBytes)/float64(max(queries, 1)), "B", queries)
	r.set("cluster.worker_rpc.retries", float64(retries), "count", 1)

	fetches := links["ctx"] + links["open"] + links["ambiguous"] + links["none"]
	r.set("trace.unlinked_frac", float64(links["ambiguous"]+links["none"])/float64(max(fetches, 1)), "frac", fetches)
	r.note("trace: worker fetch links %v", links)

	if len(replays) > 0 {
		sort.Slice(replays, func(a, b int) bool { return replays[a].Start < replays[b].Start })
		first, last := replays[0].Start, replays[0].End
		for _, s := range replays {
			last = max(last, s.End)
		}
		drain := float64(last-first) / 1e9
		r.set("cluster.replay.first_delay_s", float64(first-resumedAt)/1e9, "s", len(replays))
		r.set("cluster.replay.drain_s", drain, "s", len(replays))
		r.set("cluster.replay.batches_per_s", float64(len(replays))/max(drain, 1e-9), "1/s", len(replays))
	}

	// Overhead: the same schedule's traced half against its untraced half.
	var tracedLat, plainLat []time.Duration
	for i := range ops {
		if outs[i].err != nil {
			continue
		}
		if ops[i].traced {
			tracedLat = append(tracedLat, outs[i].latency(ops[i].due))
		} else {
			plainLat = append(plainLat, outs[i].latency(ops[i].due))
		}
	}
	tp, pp := percentile(durationsMS(tracedLat), 0.5), percentile(durationsMS(plainLat), 0.5)
	r.set("trace.overhead_pct", 100*(tp-pp)/max(pp, 1e-9), "%", len(tracedLat))

	attributionTable(r, st, ops, outs)
}

// attributionTable prints, per op kind, the traced ops' mean time per
// layer and checks the layers sum to the mean latency within 5 %.
func attributionTable(r *result, st *spanTree, ops []op, outs []outcome) {
	roots := map[int64]int{}
	for i := range st.spans {
		if strings.HasPrefix(st.spans[i].Name, "op.") {
			roots[st.spans[i].Req] = i
		}
	}
	type agg struct {
		layers  map[string]float64
		latency float64
		n       int
	}
	byKind := map[opKind]*agg{}
	for i := range ops {
		root, ok := roots[int64(i+1)]
		if !ok || outs[i].err != nil {
			continue
		}
		a := byKind[ops[i].kind]
		if a == nil {
			a = &agg{layers: map[string]float64{}}
			byKind[ops[i].kind] = a
		}
		a.n++
		a.latency += float64(outs[i].latency(ops[i].due))
		a.layers["loadgen.wait"] += float64(outs[i].sent - ops[i].due)
		st.attribute(root, a.layers)
	}
	kinds := make([]opKind, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(a, b int) bool { return kinds[a] < kinds[b] })
	for _, k := range kinds {
		a := byKind[k]
		names := make([]string, 0, len(a.layers))
		for n := range a.layers {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		var sum float64
		fmt.Fprintf(&b, "layers of %s (mean over %d traced ops, us):", k, a.n)
		for _, n := range names {
			v := a.layers[n] / float64(a.n) / 1e3
			sum += v
			fmt.Fprintf(&b, "\n  %-34s %10.1f", n, v)
		}
		lat := a.latency / float64(a.n) / 1e3
		fmt.Fprintf(&b, "\n  %-34s %10.1f\n  %-34s %10.1f", "sum", sum, "client latency from due", lat)
		r.note("%s", b.String())
		if diff := sum - lat; diff > 0.05*lat || diff < -0.05*lat {
			r.fail("trace: %s layers sum to %.1f us, client latency %.1f us (beyond 5%%)", k, sum, lat)
		}
	}
}
