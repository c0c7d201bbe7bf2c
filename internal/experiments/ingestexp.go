package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"opaq/internal/core"
	"opaq/internal/datagen"
	"opaq/internal/engine"
	"opaq/internal/runio"
	"opaq/opaqclient"
)

// IngestSweep is an extension experiment beyond the paper's evaluation:
// it measures the server's ingest paths end to end — client encoding,
// transport, server decode and engine insert in one process — for the
// same stream pushed two ways: JSON over HTTP (the baseline API) and
// binary frames over HTTP (content-negotiated on the same route). The
// paper's premise is that one sequential pass at device speed suffices
// for accurate quantiles; this table asks whether the service's front
// door keeps up with that pass, and by how much the binary framing
// widens it.
func IngestSweep(scale int) (*Table, error) {
	n := scaleN(8_000_000, scale)
	// One run per batch: large enough to amortize per-batch overheads, and
	// each transport ships the identical batch boundaries. A 64K-element
	// JSON body is ~700 KiB, still well under the ingest body cap. The
	// light sampling config (s=32) keeps the engine's own run-sorting cost
	// from drowning the transport costs this experiment compares.
	const batch = 1 << 16
	cfg := core.Config{RunLen: 1 << 16, SampleSize: 1 << 5}

	xs := datagen.Generate(datagen.NewUniform(seqSeed, 1<<62), n)

	t := &Table{
		ID:     "Extension: ingest",
		Title:  fmt.Sprintf("Ingest transport throughput (n=%s streamed in %d-element batches, m=%d, s=%d)", humanN(n), batch, cfg.RunLen, cfg.SampleSize),
		Header: []string{"Transport", "elems/sec", "ns/elem", "allocs/elem", "vs JSON"},
		Notes: []string{
			"one process: client encode, loopback transport, server decode and engine insert all measured together",
			"allocs/elem is the whole-process malloc count over the run — client and server sides combined",
		},
	}

	transports := []struct {
		key  string
		push func(e *engine.Engine[int64]) error
	}{
		{"json_http", func(e *engine.Engine[int64]) error {
			url, stop, err := serveHTTP(e)
			if err != nil {
				return err
			}
			defer stop()
			return pushJSON(url+"/ingest", xs, batch)
		}},
		{"binary_http", func(e *engine.Engine[int64]) error {
			url, stop, err := serveHTTP(e)
			if err != nil {
				return err
			}
			defer stop()
			c := opaqclient.NewHTTP(url, runio.Int64Codec{}, opaqclient.Options{MaxBatch: batch})
			if err := c.AddBatch(xs); err != nil {
				return err
			}
			return c.Close()
		}},
	}

	var jsonRate float64
	for _, tr := range transports {
		e, err := engine.New[int64](engine.Options{Config: cfg, Stripes: 4})
		if err != nil {
			return nil, err
		}
		elapsed, mallocs, err := measureIngest(func() error { return tr.push(e) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tr.key, err)
		}
		if got := e.N(); got != int64(n) {
			return nil, fmt.Errorf("%s: engine holds %d elements, pushed %d", tr.key, got, n)
		}

		rate := float64(n) / elapsed.Seconds()
		nsPerElem := float64(elapsed.Nanoseconds()) / float64(n)
		allocsPerElem := float64(mallocs) / float64(n)
		if tr.key == "json_http" {
			jsonRate = rate
		}
		t.AddRow(tr.key,
			humanN(int(rate)),
			fmt.Sprintf("%.1f", nsPerElem),
			fmt.Sprintf("%.2f", allocsPerElem),
			fmt.Sprintf("%.1fx", rate/jsonRate))

		t.AddMetric("ingest/"+tr.key+"/elems_per_sec", rate, "elems/sec", "higher", true)
		t.AddMetric("ingest/"+tr.key+"/ns_per_elem", nsPerElem, "ns/op", "lower", false)
		t.AddMetric("ingest/"+tr.key+"/allocs_per_elem", allocsPerElem, "allocs/op", "lower", false)
		if tr.key != "json_http" {
			t.AddMetric("ingest/"+tr.key+"/speedup_vs_json", rate/jsonRate, "x", "higher", false)
		}
	}
	return t, nil
}

// measureIngest runs one push under a malloc counter. The GC pass first
// keeps a previous transport's garbage out of this run's numbers.
func measureIngest(push func() error) (time.Duration, uint64, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := push(); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, nil
}

// serveHTTP exposes one engine on a loopback listener with the binary
// route enabled, returning the base URL and a stop function.
func serveHTTP(e *engine.Engine[int64]) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: engine.NewHandlerCodec(e, engine.Int64Key, runio.Int64Codec{}, engine.HandlerOptions{})}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// pushJSON streams batches through the JSON ingest route the way an
// idiomatic JSON client does — encoding/json marshalling one keys body
// per batch, one POST per batch over a kept-alive connection.
func pushJSON(url string, xs []int64, batch int) error {
	for off := 0; off < len(xs); off += batch {
		end := min(off+batch, len(xs))
		body, err := json.Marshal(struct {
			Keys []int64 `json:"keys"`
		}{Keys: xs[off:end]})
		if err != nil {
			return err
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("json ingest: http %d", resp.StatusCode)
		}
	}
	return nil
}
