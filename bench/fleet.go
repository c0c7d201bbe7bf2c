package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"opaq/internal/cluster"
	"opaq/internal/core"
	"opaq/internal/engine"
	"opaq/internal/runio"
)

// fleetDefaults is the worker engine configuration `opaq serve` runs with
// by default, plus the seal and compaction triggers a long-lived fleet
// needs: int64 keys, m = 65 536, s = 1 024 (step 64), 2 stripes.
var fleetDefaults = engine.Options{
	Config:     core.Config{RunLen: 1 << 16, SampleSize: 1 << 10},
	Stripes:    2,
	Epoch:      engine.EpochPolicy{MaxElems: 1 << 20},
	Compaction: engine.CompactionPolicy{Enabled: true},
}

const (
	numWorkers = 3
	spread     = 2
)

// worker is one in-process `opaq worker`: a registry behind the engine's
// HTTP handler on a loopback listener. pause and resume close and reopen
// the listener on the same address while the registry stays in memory —
// a network partition that heals, not a crash.
type worker struct {
	reg     *engine.Registry[int64]
	handler http.Handler
	addr    string
	srv     *http.Server
	served  chan struct{}
}

func (w *worker) serve(ln net.Listener) {
	w.srv = &http.Server{Handler: w.handler}
	w.served = make(chan struct{})
	go func(srv *http.Server, done chan struct{}) {
		srv.Serve(ln)
		close(done)
	}(w.srv, w.served)
}

// pause stops accepting connections and waits for in-flight requests, so
// every batch a worker applied was also acknowledged.
func (w *worker) pause() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	<-w.served
	return err
}

func (w *worker) resume() error {
	ln, err := net.Listen("tcp", w.addr)
	if err != nil {
		return fmt.Errorf("reopening worker listener %s: %w", w.addr, err)
	}
	w.serve(ln)
	return nil
}

// fleet is three workers and one coordinator (spread 2, gather cache on,
// write-ahead journal on), all on loopback listeners in this process.
type fleet struct {
	workers   []*worker
	coord     *cluster.Coordinator[int64]
	coordSrv  *http.Server
	coordDone chan struct{}
	coordURL  string
	// admin is the benchmark's own client for set-up, stats and checks;
	// it never carries measured requests.
	admin *http.Client
}

// startFleet boots the fleet. With a tracer, each layer's public entry
// point is wrapped: the worker handlers, the coordinator handler and the
// coordinator's worker transport.
func startFleet(dir string, cacheBytes int64, tr *tracer) (*fleet, error) {
	f := &fleet{admin: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	urls := make([]string, 0, numWorkers)
	for i := 0; i < numWorkers; i++ {
		reg, err := engine.NewRegistry(engine.RegistryOptions[int64]{Defaults: fleetDefaults, Codec: runio.Int64Codec{}})
		if err != nil {
			f.close()
			return nil, err
		}
		w := &worker{reg: reg, handler: engine.NewRegistryHandler(reg, engine.Int64Key, engine.HandlerOptions{})}
		if tr != nil {
			w.handler = tr.workerHandler(w.handler)
		}
		f.workers = append(f.workers, w)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		w.addr = ln.Addr().String()
		w.serve(ln)
		urls = append(urls, "http://"+w.addr)
	}
	hc := cluster.NewWorkerHTTPClient(5 * time.Second)
	if tr != nil {
		hc.Transport = tr.rpcTransport(hc.Transport)
	}
	coord, err := cluster.New(cluster.Options[int64]{
		Workers:          urls,
		Spread:           spread,
		Codec:            runio.Int64Codec{},
		Parse:            engine.Int64Key,
		Client:           &cluster.WorkerClient{HTTP: hc},
		GatherCacheBytes: cacheBytes,
		WALDir:           filepath.Join(dir, "wal"),
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	var h http.Handler = coord.Handler()
	if tr != nil {
		h = tr.coordHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.coordURL = "http://" + ln.Addr().String()
	f.coordSrv = &http.Server{Handler: h}
	f.coordDone = make(chan struct{})
	go func() {
		f.coordSrv.Serve(ln)
		close(f.coordDone)
	}()
	return f, nil
}

// close stops every server and goroutine the fleet started and waits for
// them.
func (f *fleet) close() {
	if f.coordSrv != nil {
		f.coordSrv.Close()
		<-f.coordDone
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, w := range f.workers {
		if w.srv != nil {
			w.srv.Close()
			<-w.served
		}
		w.reg.Close()
	}
	f.admin.CloseIdleConnections()
}

// workerByURL maps an owner URL back to its worker.
func (f *fleet) workerByURL(url string) *worker {
	for _, w := range f.workers {
		if "http://"+w.addr == url {
			return w
		}
	}
	return nil
}

// createTenant places a tenant on its owners through the coordinator's
// admin API; cfg holds the engine overrides (retention, m, s).
func (f *fleet) createTenant(name string, cfg map[string]any) error {
	body := map[string]any{"name": name}
	for k, v := range cfg {
		body[k] = v
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := f.admin.Post(f.coordURL+"/admin/tenants", "application/json", bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("create tenant %s: %w", name, err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create tenant %s: http %d: %s", name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// postFrame sends one binary batch through the coordinator outside the
// measured schedule (preloads, fault injection in tests).
func (f *fleet) postFrame(tenant string, keys []int64) error {
	frame, err := runio.AppendDataFrame(nil, runio.Int64Codec{}, "", keys)
	if err != nil {
		return err
	}
	resp, err := f.admin.Post(f.coordURL+"/t/"+tenant+"/ingest", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("preload %s: http %d", tenant, resp.StatusCode)
	}
	return nil
}

// getJSON decodes a 200 answer from the coordinator.
func (f *fleet) getJSON(path string, out any) error {
	resp, err := f.admin.Get(f.coordURL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: http %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

// coordStats is the coordinator's /t/{tenant}/stats answer.
type coordStats struct {
	N           int64 `json:"n"`
	Partial     bool  `json:"partial"`
	GatherCache struct {
		Hits         int64 `json:"gather_hits"`
		Misses       int64 `json:"gather_misses"`
		Revalidated  int64 `json:"gather_304s"`
		Singleflight int64 `json:"gather_singleflight"`
		Bytes        int64 `json:"bytes"`
		Tenants      int64 `json:"tenants"`
	} `json:"gather_cache"`
	WAL struct {
		Appends      int64 `json:"wal_appends"`
		Replayed     int64 `json:"wal_replayed"`
		PendingBytes int64 `json:"wal_pending_bytes"`
		Drops        int64 `json:"wal_drops"`
	} `json:"wal"`
}

func (f *fleet) stats(tenant string) (coordStats, error) {
	var st coordStats
	err := f.getJSON("/t/"+tenant+"/stats", &st)
	return st, err
}

// engineTotals sums a tenant's engine counters over the workers holding
// it: lifetime N and the retained N queries merge.
func (f *fleet) engineTotals(tenant string) (n, retained int64) {
	for _, w := range f.workers {
		eng, err := w.reg.Get(tenant)
		if err != nil {
			continue
		}
		st := eng.Stats()
		n += st.N
		retained += st.RetainedN
	}
	return n, retained
}

// engineStats sums every tenant's engine counters over the fleet.
func (f *fleet) engineStats() engine.Stats {
	var sum engine.Stats
	for _, w := range f.workers {
		for _, name := range w.reg.Names() {
			eng, err := w.reg.Get(name)
			if err != nil {
				continue
			}
			st := eng.Stats()
			sum.SealedEpochs += st.SealedEpochs
			sum.Compactions += st.Compactions
			sum.EvictedEpochs += st.EvictedEpochs
			sum.Merges += st.Merges
			sum.PrefixHits += st.PrefixHits
		}
	}
	return sum
}
