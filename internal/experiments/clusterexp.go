package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"opaq/internal/cluster"
	"opaq/internal/core"
	"opaq/internal/datagen"
	"opaq/internal/engine"
	"opaq/internal/runio"
)

// ClusterSweep is an extension experiment beyond the paper's evaluation:
// it measures the distributed tier end to end over real loopback HTTP —
// one coordinator scatter-gathering three worker processes' registries —
// in the dimensions the tier adds over a single engine: routed binary
// ingest (coordinator proxies frames to the tenant's owners) and merged
// quantile queries, measured both cold (gather cache disabled: every
// query re-fetches and re-merges every owner summary) and warm (the
// versioned gather cache revalidates owners with conditional GETs and
// reuses the merged summary). All are wall-clock over real sockets, so
// all feed the regression gate.
func ClusterSweep(scale int) (*Table, error) {
	n := scaleN(2_000_000, scale)
	const coldQueries = 400
	const warmQueries = 8000
	const queryClients = 8
	const tenant = "bench"
	codec := runio.Int64Codec{}
	defaults := engine.Options{
		Config:  core.Config{RunLen: 1 << 14, SampleSize: 1 << 9},
		Stripes: 2,
	}

	// Three workers: registry + HTTP handler each on a loopback listener.
	var urls []string
	var servers []*http.Server
	var registries []*engine.Registry[int64]
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
		for _, reg := range registries {
			reg.Close()
		}
	}()
	for i := 0; i < 3; i++ {
		// The codec (the registry's wire/checkpoint encoding) enables the
		// binary ingest path on the worker handler.
		reg, err := engine.NewRegistry(engine.RegistryOptions[int64]{Defaults: defaults, Codec: codec})
		if err != nil {
			return nil, err
		}
		registries = append(registries, reg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &http.Server{Handler: engine.NewRegistryHandler(reg, engine.Int64Key, engine.HandlerOptions{})}
		servers = append(servers, srv)
		go srv.Serve(ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}

	// Two coordinators over the same fleet: the warm one with the gather
	// fast path on (the default), the cold one with it disabled — the
	// pre-cache behavior, kept measured so the baseline path can't rot.
	serveCoord := func(disableCache bool) (string, error) {
		coord, err := cluster.New(cluster.Options[int64]{
			Workers:            urls,
			Spread:             2,
			Codec:              codec,
			Parse:              engine.Int64Key,
			Client:             &cluster.WorkerClient{HTTP: cluster.NewWorkerHTTPClient(10 * time.Second)},
			DisableGatherCache: disableCache,
		})
		if err != nil {
			return "", err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: coord.Handler()}
		servers = append(servers, srv)
		go srv.Serve(ln)
		return "http://" + ln.Addr().String(), nil
	}
	baseWarm, err := serveCoord(false)
	if err != nil {
		return nil, err
	}
	baseCold, err := serveCoord(true)
	if err != nil {
		return nil, err
	}

	client := &http.Client{
		Timeout: 10 * time.Second,
		// Enough idle conns for the concurrent query pool; the default
		// transport keeps only 2 per host and would redial under load.
		Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 2 * queryClients},
	}
	post := func(path, contentType string, body []byte) error {
		resp, err := client.Post(baseWarm+path, contentType, bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s: http %d", path, resp.StatusCode)
		}
		return nil
	}
	if err := post("/admin/tenants", "application/json", []byte(`{"name":"`+tenant+`"}`)); err != nil {
		return nil, err
	}

	// Routed ingest: run-aligned binary frames through the coordinator,
	// round-robining across the tenant's owners.
	const batch = 1 << 14 // one run per frame
	xs := datagen.Generate(datagen.NewUniform(seqSeed, 1<<62), n)
	start := time.Now()
	var frame []byte
	for off := 0; off < len(xs); off += batch {
		end := off + batch
		if end > len(xs) {
			end = len(xs)
		}
		if frame, err = runio.AppendDataFrame(frame[:0], codec, "", xs[off:end]); err != nil {
			return nil, err
		}
		if err := post("/t/"+tenant+"/ingest", "application/octet-stream", frame); err != nil {
			return nil, err
		}
	}
	ingestTime := time.Since(start)

	// Merged quantile queries against a fixed fleet state. Each cold query
	// fetches both owners' summaries and merges them; each warm query
	// revalidates the owners (headers-only 304s) and answers off the
	// cached merge. One untimed query first so the warm run measures the
	// steady state, not the cold miss.
	query := func(base string, phi float64) error {
		resp, err := client.Get(fmt.Sprintf("%s/t/%s/quantile?phi=%g", base, tenant, phi))
		if err != nil {
			return err
		}
		var out struct {
			Partial bool `json:"partial"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if out.Partial {
			return fmt.Errorf("partial answer with the whole fleet up")
		}
		return nil
	}
	runQueries := func(base string, count, clients int) (time.Duration, error) {
		if err := query(base, 0.5); err != nil { // untimed warm-up
			return 0, err
		}
		begin := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, clients)
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < count/clients; i++ {
					if err := query(base, 0.5+float64(i%9-4)/10); err != nil {
						select {
						case errCh <- err:
						default:
						}
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(begin)
		select {
		case err := <-errCh:
			return 0, err
		default:
		}
		return elapsed, nil
	}
	// Cold runs single-client — the same shape the scatter_gather series
	// has always been measured with, so the cache-off path stays
	// comparable across benchmark generations. Warm runs with a pool of
	// concurrent clients: revalidation round trips dominate a single
	// warm query, and overlapping queries is both the load shape a
	// serving coordinator sees and what the singleflight coalescing is
	// built for.
	coldTime, err := runQueries(baseCold, coldQueries, 1)
	if err != nil {
		return nil, err
	}
	warmTime, err := runQueries(baseWarm, warmQueries, queryClients)
	if err != nil {
		return nil, err
	}
	coldQPS := float64(coldQueries) / coldTime.Seconds()
	warmQPS := float64(warmQueries) / warmTime.Seconds()

	t := &Table{
		ID:     "Extension: coord",
		Title:  fmt.Sprintf("Distributed tier wall-clock (1 coordinator + 3 workers over loopback HTTP, n=%s, spread 2)", humanN(n)),
		Header: []string{"Path", "time", "throughput"},
		Notes: []string{
			"ingest: run-aligned binary frames proxied to the owning workers",
			fmt.Sprintf("cold: %d single-client lookups, gather cache disabled (full 2-owner fetch + merge each)", coldQueries),
			fmt.Sprintf("warm: %d lookups from %d concurrent clients against the versioned gather cache (conditional GETs riding 304s, merge reused, bursts coalesced)", warmQueries, queryClients),
		},
	}
	t.AddRow("ingest", ingestTime.Round(time.Millisecond).String(),
		fmt.Sprintf("%s elems/s", humanN(int(float64(n)/ingestTime.Seconds()))))
	t.AddRow("scatter-gather cold", coldTime.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f queries/s", coldQPS))
	t.AddRow("scatter-gather warm", warmTime.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f queries/s", warmQPS))
	t.AddMetric("coord/ingest/elems_per_sec", float64(n)/ingestTime.Seconds(), "elems/sec", "higher", true)
	// The historical scatter_gather series continues as the default
	// (cache-on) path; cold and warm are also tracked separately so a
	// regression in either shows up on its own line.
	t.AddMetric("coord/scatter_gather/queries_per_sec", warmQPS, "queries/sec", "higher", true)
	t.AddMetric("coord/scatter_gather_cold/queries_per_sec", coldQPS, "queries/sec", "higher", true)
	t.AddMetric("coord/scatter_gather_warm/queries_per_sec", warmQPS, "queries/sec", "higher", true)
	return t, nil
}
