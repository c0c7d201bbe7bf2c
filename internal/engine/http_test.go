package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"testing"

	"opaq/internal/core"
)

func newTestServer(t *testing.T) (*Engine[int64], *httptest.Server) {
	t.Helper()
	e, err := New[int64](Options{
		Config:  core.Config{RunLen: 256, SampleSize: 32},
		Stripes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(e, Int64Key))
	t.Cleanup(srv.Close)
	return e, srv
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decoding body: %v", url, err)
	}
	return out
}

func TestHTTPIngestQuantileStats(t *testing.T) {
	e, srv := newTestServer(t)

	// Ingest 0..999 shuffled deterministically, as a mix of JSON numbers
	// and strings (strings are how 64-bit-precise clients send keys).
	keys := make([]int64, 1000)
	for i := range keys {
		keys[i] = int64((i * 7919) % 1000)
	}
	var body bytes.Buffer
	body.WriteString(`{"keys":[`)
	for i, k := range keys {
		if i > 0 {
			body.WriteByte(',')
		}
		if i%3 == 0 {
			fmt.Fprintf(&body, "%q", strconv.FormatInt(k, 10))
		} else {
			fmt.Fprintf(&body, "%d", k)
		}
	}
	body.WriteString(`]}`)
	resp, err := http.Post(srv.URL+"/ingest", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var ing map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	if ing["ingested"] != 1000 || ing["n"] != 1000 {
		t.Fatalf("ingest response %+v", ing)
	}

	// The served median enclosure must contain the exact median.
	q := getJSON(t, srv.URL+"/quantile?phi=0.5", http.StatusOK)
	lower, err := strconv.ParseInt(q["lower"].(string), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	upper, err := strconv.ParseInt(q["upper"].(string), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]int64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	truth := sorted[499] // rank ⌈0.5·1000⌉ = 500
	if lower > truth || truth > upper {
		t.Errorf("served median [%d, %d] does not contain exact %d", lower, upper, truth)
	}

	qs := getJSON(t, srv.URL+"/quantiles?q=10", http.StatusOK)
	if got := len(qs["quantiles"].([]any)); got != 9 {
		t.Errorf("quantiles count = %d, want 9", got)
	}

	sel := getJSON(t, srv.URL+"/selectivity?a=250&b=749", http.StatusOK)
	if s := sel["selectivity"].(float64); s < 0.3 || s > 0.7 {
		t.Errorf("selectivity of middle half = %g, want ≈0.5", s)
	}

	st := getJSON(t, srv.URL+"/stats", http.StatusOK)
	if n := st["n"].(float64); n != 1000 {
		t.Errorf("stats n = %g", n)
	}
	if e.Stats().Queries == 0 {
		t.Error("served queries not counted")
	}
}

func TestHTTPErrors(t *testing.T) {
	_, srv := newTestServer(t)

	// Malformed requests → 400. phi=NaN parses as a float but fails every
	// range comparison; it must be rejected, not served as a bogus rank.
	getJSON(t, srv.URL+"/quantile?phi=abc", http.StatusBadRequest)
	getJSON(t, srv.URL+"/quantile", http.StatusBadRequest)
	getJSON(t, srv.URL+"/quantiles?q=x", http.StatusBadRequest)
	getJSON(t, srv.URL+"/selectivity?a=1&b=zzz", http.StatusBadRequest)
	// An unbounded q would make one request allocate O(q) — capped.
	getJSON(t, srv.URL+"/quantiles?q=2000000000", http.StatusBadRequest)
	resp, err := http.Post(srv.URL+"/ingest", "application/json", bytes.NewBufferString(`{"keys":["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unparseable key: status %d, want 400", resp.StatusCode)
	}

	// Querying an empty engine → 409 (a state problem, not a bad request).
	getJSON(t, srv.URL+"/quantile?phi=0.5", http.StatusConflict)
	getJSON(t, srv.URL+"/selectivity?a=1&b=2", http.StatusConflict)

	// Out-of-range and non-finite phi → 400 once data exists.
	resp, err = http.Post(srv.URL+"/ingest", "application/json", bytes.NewBufferString(`{"keys":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	getJSON(t, srv.URL+"/quantile?phi=1.5", http.StatusBadRequest)
	getJSON(t, srv.URL+"/quantile?phi=NaN", http.StatusBadRequest)
	getJSON(t, srv.URL+"/quantile?phi=+Inf", http.StatusBadRequest)

	// Wrong method → 405 from the method-aware mux.
	resp, err = http.Get(srv.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats: status %d, want 405", resp.StatusCode)
	}
}
