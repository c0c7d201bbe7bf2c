package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"opaq/internal/runio"
	"opaq/opaqclient"
)

// opKind is what one scheduled request does.
type opKind uint8

const (
	opIngest      opKind = iota // binary batch through opaqclient.Client
	opIngestJSON                // JSON batch POSTed to the ingest route
	opQuantile                  // opaqclient.Query.Quantile
	opSelectivity               // opaqclient.Query.Selectivity
	opStats                     // opaqclient.Query.Stats
	opSummary                   // opaqclient.Query.Summary (conditional download)
)

var kindNames = [...]string{"ingest", "ingest_json", "quantile", "selectivity", "stats", "summary"}

func (k opKind) String() string { return kindNames[k] }

func (k opKind) isIngest() bool { return k == opIngest || k == opIngestJSON }

// op is one request of the open-loop schedule.
type op struct {
	due    time.Duration // offset from the schedule's start
	kind   opKind
	tenant int32
	batch  int32 // ingests: index in the tenant's key stream
	n      int32 // ingests: keys in the batch
	phi    float64
	a, b   int64 // selectivity range
	// traced marks the half of the requests a traced run records spans
	// for; the other half measure the same schedule untraced.
	traced bool
}

// outcome is what happened to one op: when its sender was free, when the
// request left, when the answer arrived (offsets from the schedule's
// start), and how it ended.
type outcome struct {
	free, sent, done time.Duration
	err              error
	partial          bool
}

// latency is the op's latency from its due time, which charges the wait a
// stall imposes on later requests.
func (o *outcome) latency(due time.Duration) time.Duration { return o.done - due }

// lag is how late the generator itself ran: the send time past the later
// of the due time and the moment a sender became free. Waiting for a free
// sender is the system's queueing, not generator lag.
func (o *outcome) lag(due time.Duration) time.Duration {
	return max(o.sent-max(due, o.free), 0)
}

// keyDist is a key distribution of the generated batches.
type keyDist uint8

const (
	uniformKeys keyDist = iota
	zipfKeys
)

// zipfUniverse is the number of distinct Zipf keys; with exponent 1.1 the
// most popular key is several percent of every batch, so runs are full of
// duplicates.
const zipfUniverse = 1 << 20

// batchKeys appends batch i of tenant t's key stream to dst[:0]. The keys
// depend only on (seed, t, i), so the oracle regenerates exactly the
// batches that were acknowledged.
func batchKeys(dst []int64, seed uint64, t, i, n int, d keyDist) []int64 {
	r := rand.New(rand.NewPCG(seed, uint64(t)<<32|uint64(uint32(i))))
	dst = dst[:0]
	switch d {
	case uniformKeys:
		for j := 0; j < n; j++ {
			dst = append(dst, r.Int64N(1<<62))
		}
	case zipfKeys:
		z := rand.NewZipf(r, 1.1, 1, zipfUniverse-1)
		for j := 0; j < n; j++ {
			dst = append(dst, spreadKey(z.Uint64()))
		}
	}
	return dst
}

// spreadKey scatters Zipf popularity ranks over the key domain (a Weyl
// sequence), so skew in frequency is not skew in key order.
func spreadKey(rank uint64) int64 {
	return int64((rank+1)*0x61c8864680b583eb) & (1<<62 - 1)
}

// stream is one constant-rate arrival process of a schedule; next draws
// the op's kind and arguments.
type stream struct {
	rate float64
	next func(r *rand.Rand) op
}

// buildSchedule lays the streams out over seconds: evenly spaced arrivals
// per stream, each stream at a seeded phase, merged by due time. Even
// spacing keeps run-to-run spread down; the seed still decides the phases,
// the op mix, the tenants and every key.
func buildSchedule(seed uint64, seconds float64, streams func(r *rand.Rand) []stream) []op {
	r := rand.New(rand.NewPCG(seed, 0x7363686564))
	span := time.Duration(seconds * float64(time.Second))
	var ops []op
	for _, s := range streams(r) {
		if s.rate <= 0 {
			continue
		}
		gap := time.Duration(float64(time.Second) / s.rate)
		for due := time.Duration(r.Int64N(int64(gap))); due < span; due += gap {
			o := s.next(r)
			o.due = due
			ops = append(ops, o)
		}
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	for i := range ops {
		ops[i].traced = i%2 == 0
	}
	return ops
}

// loadRun drives one schedule against the coordinator.
type loadRun struct {
	base    string
	tenants []string
	seed    uint64
	dist    keyDist
	tr      *tracer // nil when untraced
	epoch   time.Time
}

// senders is the number of sender goroutines, each with one connection:
// one per core of the machine the load was sized on.
const senders = 2

// run executes ops open-loop from l.epoch: two senders take the next op in
// due order, sleep until it is due, send it and record the outcome. An op
// that falls due while both senders are busy waits, and the wait counts in
// its latency.
func (l *loadRun) run(ops []op) []outcome {
	out := make([]outcome, len(ops))
	ss := make([]*sender, senders)
	for i := range ss {
		ss[i] = l.newSender()
	}
	defer func() {
		for _, s := range ss {
			s.hc.CloseIdleConnections()
		}
	}()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				out[i] = s.do(i, &ops[i])
			}
		}(s)
	}
	wg.Wait()
	return out
}

// sender owns one HTTP connection and the opaqclient objects riding it.
type sender struct {
	l      *loadRun
	hc     *http.Client
	rt     *clientRT // nil when untraced
	ingest map[int32]*opaqclient.Client[int64]
	query  map[int32]*opaqclient.Query
	keys   []int64
	body   []byte
}

func (l *loadRun) newSender() *sender {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	s := &sender{l: l, ingest: map[int32]*opaqclient.Client[int64]{}, query: map[int32]*opaqclient.Query{}}
	if l.tr != nil {
		s.rt = &clientRT{base: rt, t: l.tr}
		rt = s.rt
	}
	s.hc = &http.Client{Transport: rt, Timeout: 60 * time.Second}
	return s
}

func (s *sender) do(i int, o *op) outcome {
	free := time.Since(s.l.epoch)
	if o.kind.isIngest() {
		s.keys = batchKeys(s.keys, s.l.seed, int(o.tenant), int(o.batch), int(o.n), s.l.dist)
		if o.kind == opIngestJSON {
			s.body = appendJSONKeys(s.body[:0], s.keys)
		}
	}
	sleepUntil(s.l.epoch.Add(o.due))
	traced := s.rt != nil && o.traced
	var id int64
	if s.rt != nil {
		s.rt.cur = spanRef{}
		if traced {
			id = s.l.tr.newID()
			s.rt.cur = spanRef{id: id, req: int64(i + 1), traced: true}
		}
	}
	t0 := time.Now()
	res := s.exec(o)
	t1 := time.Now()
	if traced {
		s.l.tr.add(span{ID: id, Req: int64(i + 1), Name: "op." + o.kind.String(), Start: s.l.tr.at(t0), End: s.l.tr.at(t1)})
	}
	res.free, res.sent, res.done = free, t0.Sub(s.l.epoch), t1.Sub(s.l.epoch)
	return res
}

// sleepUntil waits for t. time.Sleep can wake a millisecond late when
// the runtime parks in the network poller, which would swamp
// sub-millisecond latencies, so the last two milliseconds are slept in
// the kernel, which wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

func (s *sender) client(t int32, n int) *opaqclient.Client[int64] {
	c := s.ingest[t]
	if c == nil {
		c = opaqclient.NewHTTP(s.l.base, runio.Int64Codec{}, opaqclient.Options{
			Tenant: s.l.tenants[t], MaxBatch: n, HTTPClient: s.hc,
		})
		s.ingest[t] = c
	}
	return c
}

func (s *sender) reader(t int32) *opaqclient.Query {
	q := s.query[t]
	if q == nil {
		q = opaqclient.NewQuery(s.l.base, opaqclient.Options{Tenant: s.l.tenants[t], HTTPClient: s.hc})
		s.query[t] = q
	}
	return q
}

func (s *sender) exec(o *op) outcome {
	var res outcome
	switch o.kind {
	case opIngest:
		c := s.client(o.tenant, int(o.n))
		res.err = c.AddBatch(s.keys)
		if res.err != nil {
			// The failed batch stays buffered in the client; a fresh
			// client keeps it from riding along with the next one.
			delete(s.ingest, o.tenant)
		}
	case opIngestJSON:
		res.err = s.postJSON(o.tenant)
	case opQuantile:
		a, err := s.reader(o.tenant).Quantile(o.phi)
		res.err, res.partial = err, a.Partial
		if err == nil {
			res.err = checkAnswerOrder(a.Lower, a.Upper)
		}
	case opSelectivity:
		a, err := s.reader(o.tenant).Selectivity(strconv.FormatInt(o.a, 10), strconv.FormatInt(o.b, 10))
		res.err, res.partial = err, a.Partial
	case opStats:
		a, err := s.reader(o.tenant).Stats()
		res.err, res.partial = err, a.Partial
	case opSummary:
		a, err := s.reader(o.tenant).Summary()
		res.err, res.partial = err, a.Partial
	}
	return res
}

// checkAnswerOrder rejects an enclosure whose bounds are out of order.
func checkAnswerOrder(lower, upper string) error {
	lo, err := strconv.ParseInt(lower, 10, 64)
	if err != nil {
		return err
	}
	hi, err := strconv.ParseInt(upper, 10, 64)
	if err != nil {
		return err
	}
	if lo > hi {
		return fmt.Errorf("quantile enclosure [%d, %d] is empty", lo, hi)
	}
	return nil
}

// postJSON sends the prepared JSON body; 200 and a journaled 202 are
// acks.
func (s *sender) postJSON(t int32) error {
	resp, err := s.hc.Post(s.l.base+"/t/"+s.l.tenants[t]+"/ingest", "application/json", bytes.NewReader(s.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("json ingest: http %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

func appendJSONKeys(dst []byte, keys []int64) []byte {
	dst = append(dst, `{"keys":[`...)
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, k, 10)
	}
	return append(dst, "]}"...)
}
