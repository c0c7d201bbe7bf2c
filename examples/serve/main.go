// Serve: the live quantile service end to end, in one process — an
// opaq.Engine behind its HTTP/JSON API, concurrent writers streaming keys
// in while readers query quantiles and range selectivity, and a
// checkpoint → restore cycle proving the state survives restarts. This is
// the selectivity-estimation serving story the paper's introduction
// motivates: optimizer statistics that stay fresh while data arrives.
//
// Run with: go run ./examples/serve
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"

	"opaq"
)

func main() {
	cfg := opaq.Config{RunLen: 1 << 12, SampleSize: 1 << 8}
	eng, err := opaq.NewEngine[int64](opaq.EngineOptions{Config: cfg, Stripes: 4})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(opaq.NewEngineHandler(eng, opaq.ParseInt64Key))
	defer srv.Close()
	fmt.Printf("live quantile service on %s\n\n", srv.URL)

	// Four concurrent writers stream 100k keys each over HTTP while the
	// engine serves. Each burst is one POST /ingest.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for burst := 0; burst < 100; burst++ {
				keys := make([]int64, 1000)
				for i := range keys {
					keys[i] = rng.Int63n(1_000_000)
				}
				body, _ := json.Marshal(map[string]any{"keys": keys})
				resp, err := http.Post(srv.URL+"/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					log.Fatal(err)
				}
				resp.Body.Close()
			}
		}(w)
	}

	// A reader polls the median while ingestion is in flight: every answer
	// is a deterministic enclosure over everything absorbed at that point.
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for i := 0; i < 5; i++ {
			var q struct {
				Rank  int64  `json:"rank"`
				Lower string `json:"lower"`
				Upper string `json:"upper"`
			}
			if code := getJSON(srv.URL+"/quantile?phi=0.5", &q); code == http.StatusOK {
				fmt.Printf("  mid-flight median: rank %8d in [%s, %s]\n", q.Rank, q.Lower, q.Upper)
			}
		}
	}()
	wg.Wait()
	<-readDone

	// Quiesced: dectiles, selectivity and stats from the final snapshot.
	var stats map[string]any
	getJSON(srv.URL+"/stats", &stats)
	fmt.Printf("\nfinal state: n=%v, %v snapshot samples, %v merges for %v queries\n",
		stats["n"], stats["snapshot_samples"], stats["merges"], stats["queries"])
	var sel struct {
		Selectivity float64 `json:"selectivity"`
		MaxAbsError float64 `json:"max_abs_error"`
	}
	getJSON(srv.URL+"/selectivity?a=250000&b=749999", &sel)
	fmt.Printf("selectivity of [250000, 749999]: %.4f (true 0.5, count within ±%.0f elements)\n",
		sel.Selectivity, sel.MaxAbsError)

	// Checkpoint, restore into a fresh engine, and keep serving.
	path := filepath.Join(".", "serve-checkpoint.sum")
	if err := eng.CheckpointFile(path, opaq.Int64Codec{}); err != nil {
		log.Fatal(err)
	}
	restored, err := opaq.NewEngine[int64](opaq.EngineOptions{Config: cfg, Stripes: 4})
	if err != nil {
		log.Fatal(err)
	}
	if err := restored.RestoreFile(path, opaq.Int64Codec{}); err != nil {
		log.Fatal(err)
	}
	b, err := restored.Quantile(0.9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after checkpoint → restore: n=%d, 0.9-quantile in [%d, %d]\n", restored.N(), b.Lower, b.Upper)
}

// getJSON decodes one GET response into out, returning the status code.
func getJSON(url string, out any) int {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
	return resp.StatusCode
}
