package cluster

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"opaq/internal/core"
	"opaq/internal/engine"
	"opaq/internal/runio"
)

// TestSelectivityEnclosesExactCount: every selectivity answer's
// estimate ± max_abs_error encloses the exact count of keys in [a, b],
// and max_abs_error is at most the answering summary's ErrorBound. The
// answers come from Engine.RangeEstimate, a registry handler's
// /t/{tenant}/selectivity over the same engine, and a spread-2
// coordinator over two workers holding the same keys. Keys are uniform,
// Zipf and heavy-duplicate int64, and float64 with ±0 and ±Inf; the
// ranges are every ordered pair of a set of endpoints, so they include
// a > b, a = b at the heaviest key, and, for the int64 keys, ends outside
// [min, max].
func TestSelectivityEnclosesExactCount(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	zipf := rand.NewZipf(rng, 1.1, 1, 1<<20)
	const n = 6000
	for _, g := range []struct {
		name string
		next func() int64
	}{
		{"uniform", func() int64 { return rng.Int63n(1<<40) - 1<<39 }},
		{"zipf", func() int64 { return int64(zipf.Uint64()) }},
		{"duplicates", func() int64 { return rng.Int63n(40) * 1000 }},
	} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = g.next()
		}
		outside := []int64{math.MinInt64, slices.Min(keys) - 1, slices.Max(keys) + 1, math.MaxInt64}
		t.Run(g.name, func(t *testing.T) {
			checkSelectivity(t, rng, keys, outside, engine.Int64Key, runio.Int64Codec{},
				func(x int64) string { return strconv.FormatInt(x, 10) })
		})
	}
	floats := make([]float64, n)
	for i := range floats {
		switch r := rng.Intn(20); {
		case r < 4:
			floats[i] = 0
		case r < 8:
			floats[i] = math.Copysign(0, -1)
		case r == 8:
			floats[i] = math.Inf(1)
		case r == 9:
			floats[i] = math.Inf(-1)
		default:
			floats[i] = rng.NormFloat64() * 1000
		}
	}
	t.Run("float64", func(t *testing.T) {
		checkSelectivity(t, rng, floats, []float64{math.Inf(-1), math.Copysign(0, -1), math.Inf(1)},
			engine.Float64Key, runio.Float64Codec{},
			func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) })
	})
}

// checkSelectivity ingests keys into a single registry and, 1,000 keys a
// batch, into a spread-2 coordinator over two workers, then checks every
// ordered pair of endpoints — extra, the heaviest key and keys drawn at
// random — on all three paths (see TestSelectivityEnclosesExactCount).
func checkSelectivity[T cmp.Ordered](t *testing.T, rng *rand.Rand, keys, extra []T,
	parse engine.ParseKey[T], codec runio.Codec[T], format func(T) string) {
	opts := engine.Options{Config: core.Config{RunLen: 512, SampleSize: 32}, Stripes: 2}
	newRegistry := func() *engine.Registry[T] {
		reg, err := engine.NewRegistry(engine.RegistryOptions[T]{Defaults: opts, Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reg.Close() })
		return reg
	}
	single := newRegistry()
	eng, err := single.Create("sel", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestBatch(keys); err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	singleH := engine.NewRegistryHandler(single, parse, engine.HandlerOptions{})

	var workers []string
	for range 2 {
		srv := httptest.NewServer(engine.NewRegistryHandler(newRegistry(), parse, engine.HandlerOptions{}))
		t.Cleanup(srv.Close)
		workers = append(workers, srv.URL)
	}
	coord, err := New(Options[T]{
		Workers: workers,
		Spread:  2,
		Codec:   codec,
		Parse:   parse,
		Client:  &WorkerClient{HTTP: &http.Client{Timeout: 5 * time.Second}, Backoff: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coordH := coord.Handler()
	if status, out := doJSON(t, coordH, http.MethodPost, "/admin/tenants", []byte(`{"name":"sel"}`)); status != http.StatusCreated {
		t.Fatalf("create: status %d %v", status, out)
	}
	for lo := 0; lo < len(keys); lo += 1000 {
		strs := make([]string, 0, 1000)
		for _, k := range keys[lo:min(lo+1000, len(keys))] {
			strs = append(strs, format(k))
		}
		body, err := json.Marshal(map[string]any{"keys": strs})
		if err != nil {
			t.Fatal(err)
		}
		if status, out := doJSON(t, coordH, http.MethodPost, "/t/sel/ingest", body); status != http.StatusOK {
			t.Fatalf("ingest: status %d %v", status, out)
		}
	}
	rec := doRaw(t, coordH, http.MethodGet, "/t/sel/summary", "", nil)
	if rec.status != http.StatusOK {
		t.Fatalf("coordinator summary: status %d", rec.status)
	}
	merged, err := core.LoadSummary(bytes.NewReader(rec.body.Bytes()), codec)
	if err != nil {
		t.Fatal(err)
	}
	if merged.N() != int64(len(keys)) || snap.Summary.N() != int64(len(keys)) {
		t.Fatalf("summaries hold %d (coordinator) and %d (engine) keys, want %d", merged.N(), snap.Summary.N(), len(keys))
	}

	sorted := slices.Sorted(slices.Values(keys))
	heavy, run := sorted[0], 0
	for i := range sorted {
		if j := sort.Search(len(sorted), func(j int) bool { return sorted[j] > sorted[i] }); j-i > run {
			heavy, run = sorted[i], j-i
		}
	}
	exact := func(a, b T) float64 {
		if !(a <= b) {
			return 0
		}
		lo := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= a })
		hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] > b })
		return float64(hi - lo)
	}
	ends := append(slices.Clone(extra), heavy)
	for range 10 {
		ends = append(ends, keys[rng.Intn(len(keys))])
	}
	check := func(path string, a, b T, est, maxErr float64, bound int64) {
		t.Helper()
		if x := exact(a, b); math.Abs(x-est) > maxErr || maxErr > float64(bound) {
			t.Errorf("%s [%v, %v]: %g ± %g, exact %g, ErrorBound %d", path, a, b, est, maxErr, x, bound)
		}
	}
	for _, a := range ends {
		for _, b := range ends {
			_, est, maxErr, err := eng.RangeEstimate(a, b)
			if err != nil {
				t.Fatal(err)
			}
			check("Engine.RangeEstimate", a, b, est, maxErr, snap.Summary.ErrorBound())
			path := fmt.Sprintf("/t/sel/selectivity?a=%s&b=%s", url.QueryEscape(format(a)), url.QueryEscape(format(b)))
			for _, via := range []struct {
				name  string
				h     http.Handler
				bound int64
			}{
				{"registry handler", singleH, snap.Summary.ErrorBound()},
				{"coordinator", coordH, merged.ErrorBound()},
			} {
				status, out := doJSON(t, via.h, http.MethodGet, path, nil)
				if status != http.StatusOK {
					t.Fatalf("%s %s: status %d %v", via.name, path, status, out)
				}
				check(via.name, a, b, out["estimate"].(float64), out["max_abs_error"].(float64), via.bound)
			}
		}
	}
}
