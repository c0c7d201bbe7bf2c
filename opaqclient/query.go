package opaqclient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
)

// Query is the read side of the client: quantile, selectivity, stats and
// health queries against any server speaking the opaq HTTP surface — a
// single `opaq serve`, an `opaq worker`, or an `opaq coord` fronting a
// fleet. Against a coordinator, answers may be degraded: Partial is true
// when one of the tenant's workers was down and the answer merges only
// the survivors. Against a single server Partial is always false.
//
// Keys travel as the decimal strings the server formats them with, so
// one Query works for every element type; int64 callers parse bounds
// with strconv.ParseInt.
type Query struct {
	base   string
	tenant string
	hc     *http.Client

	// Summary's conditional-GET cache: the last fetched summary bytes and
	// the ETag that names them. Servers answer 304 when the tag still
	// matches, so a poller pays one headers-only round trip instead of
	// re-downloading (and the coordinator skips re-serializing) an
	// unchanged summary.
	sumMu      sync.Mutex
	sumTag     string
	sumBytes   []byte
	sumPartial bool
}

// NewQuery returns a Query against baseURL (e.g. "http://localhost:8080"
// — an opaq serve, worker, or coordinator address). Options.Tenant
// scopes the tenant routes; Options.HTTPClient overrides the transport.
// The batching fields of Options are ignored.
func NewQuery(baseURL string, opts Options) *Query {
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Query{base: baseURL, tenant: opts.Tenant, hc: hc}
}

// QuantileAnswer is one quantile's rank enclosure.
type QuantileAnswer struct {
	Phi      float64 `json:"phi"`
	Rank     int64   `json:"rank"`
	Lower    string  `json:"lower"`
	Upper    string  `json:"upper"`
	MaxBelow int64   `json:"max_below"`
	MaxAbove int64   `json:"max_above"`
	// Partial means a coordinator answered from a strict subset of the
	// tenant's workers: the enclosure covers the surviving data only.
	Partial bool `json:"partial"`
}

// SelectivityAnswer estimates the fraction of elements in a key range.
// Estimate ± MaxAbsError encloses the exact count of elements in the
// range, and MaxAbsError is at most the error bound of the summary that
// answered (on a single server, the snapshot_error_bound its stats
// report). Selectivity is Estimate over that summary's element count.
type SelectivityAnswer struct {
	Selectivity float64 `json:"selectivity"`
	Estimate    float64 `json:"estimate"`
	MaxAbsError float64 `json:"max_abs_error"`
	Partial     bool    `json:"partial"`
}

// StatsAnswer is the tenant's serving state. Owners and Down are
// populated by coordinators only (the workers holding the tenant, and
// the subset currently unreachable).
type StatsAnswer struct {
	N       int64    `json:"n"`
	Samples int      `json:"samples"`
	Owners  []string `json:"owners"`
	Down    []string `json:"down"`
	Partial bool     `json:"partial"`
}

// HealthAnswer is the server's /healthz report. Status is "ok", or
// "degraded" when a coordinator sees unreachable workers. Raw keeps the
// full body (per-tenant stats on workers, per-worker health on
// coordinators) for callers that want the details.
type HealthAnswer struct {
	Status string
	Build  map[string]string
	Raw    map[string]any
}

// tenantPath scopes route under the client's tenant.
func (q *Query) tenantPath(route string) string {
	if q.tenant == "" {
		return q.base + route
	}
	return q.base + "/t/" + url.PathEscape(q.tenant) + route
}

// getJSON decodes a 200 response into out; any other status becomes an
// error carrying the server's body.
func (q *Query) getJSON(url string, out any) error {
	resp, err := q.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("opaqclient: %s: http %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

// Quantile asks for the phi-quantile's enclosure.
func (q *Query) Quantile(phi float64) (QuantileAnswer, error) {
	var out QuantileAnswer
	err := q.getJSON(q.tenantPath("/quantile?phi="+strconv.FormatFloat(phi, 'g', -1, 64)), &out)
	return out, err
}

// Selectivity estimates the fraction of elements in [a, b], both bounds
// as decimal key strings.
func (q *Query) Selectivity(a, b string) (SelectivityAnswer, error) {
	var out SelectivityAnswer
	err := q.getJSON(q.tenantPath("/selectivity?a="+url.QueryEscape(a)+"&b="+url.QueryEscape(b)), &out)
	return out, err
}

// Stats reports the tenant's element count and serving state.
func (q *Query) Stats() (StatsAnswer, error) {
	var out StatsAnswer
	err := q.getJSON(q.tenantPath("/stats"), &out)
	return out, err
}

// Healthz reports server (or, on a coordinator, fleet) health.
func (q *Query) Healthz() (HealthAnswer, error) {
	var raw map[string]any
	if err := q.getJSON(q.base+"/healthz", &raw); err != nil {
		return HealthAnswer{}, err
	}
	out := HealthAnswer{Raw: raw, Build: map[string]string{}}
	out.Status, _ = raw["status"].(string)
	if b, ok := raw["build"].(map[string]any); ok {
		for k, v := range b {
			if s, ok := v.(string); ok {
				out.Build[k] = s
			}
		}
	}
	return out, nil
}

// SummaryAnswer is the tenant's merged summary in the portable
// checksummed core.SaveSummary byte format — loadable with
// core.LoadSummary for offline analysis or warm-starting another engine.
type SummaryAnswer struct {
	// Bytes is the serialized summary. It is shared with the client's
	// cache; treat it as read-only.
	Bytes []byte
	// Partial mirrors the X-Opaq-Partial header: a coordinator built
	// this summary from a strict subset of the tenant's workers.
	Partial bool
	// Cached reports that the server answered 304 Not Modified and
	// Bytes came from the client-side cache unchanged.
	Cached bool
}

// Summary fetches the tenant's summary bytes with a conditional GET:
// after the first fetch the server's ETag is remembered, and an
// unchanged summary costs a headers-only 304 round trip. Safe for
// concurrent use.
func (q *Query) Summary() (SummaryAnswer, error) {
	q.sumMu.Lock()
	tag := q.sumTag
	q.sumMu.Unlock()
	req, err := http.NewRequest(http.MethodGet, q.tenantPath("/summary"), nil)
	if err != nil {
		return SummaryAnswer{}, err
	}
	if tag != "" {
		req.Header.Set("If-None-Match", tag)
	}
	resp, err := q.hc.Do(req)
	if err != nil {
		return SummaryAnswer{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		q.sumMu.Lock()
		defer q.sumMu.Unlock()
		if q.sumBytes == nil {
			return SummaryAnswer{}, fmt.Errorf("opaqclient: 304 with no cached summary")
		}
		// If a concurrent fetch replaced the entry since the tag was
		// snapshotted, its bytes are at least as fresh as this 304.
		return SummaryAnswer{Bytes: q.sumBytes, Partial: q.sumPartial, Cached: true}, nil
	case http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
		if err != nil {
			return SummaryAnswer{}, err
		}
		partial := resp.Header.Get("X-Opaq-Partial") == "true"
		if etag := resp.Header.Get("ETag"); etag != "" {
			q.sumMu.Lock()
			q.sumTag, q.sumBytes, q.sumPartial = etag, body, partial
			q.sumMu.Unlock()
		}
		return SummaryAnswer{Bytes: body, Partial: partial}, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return SummaryAnswer{}, fmt.Errorf("opaqclient: %s: http %d: %s",
			req.URL, resp.StatusCode, bytes.TrimSpace(body))
	}
}

// EnsureTenant creates the client's tenant (the server's default tenant
// when Options.Tenant was empty), succeeding if it already exists — the
// idempotent "make sure I can ingest" call. On a coordinator this places
// the tenant on its ring owners.
func (q *Query) EnsureTenant() error {
	name := q.tenant
	if name == "" {
		name = "default"
	}
	body, err := json.Marshal(map[string]string{"name": name})
	if err != nil {
		return err
	}
	resp, err := q.hc.Post(q.base+"/admin/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusCreated, http.StatusConflict:
		return nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("opaqclient: create tenant %q: http %d: %s",
			name, resp.StatusCode, bytes.TrimSpace(msg))
	}
}
