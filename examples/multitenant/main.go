// Multitenant: the epoch lifecycle and the tenant registry in one
// process. Two tenants — a lifetime (keep-all) engine and a sliding
// last-K-epochs engine — ingest the same drifting stream behind one
// HTTP mux; the windowed tenant's median tracks the drift while the
// lifetime tenant remembers everything. Both checkpoint to separate
// files in one directory, and a second registry boots warm from it.
//
// Run with: go run ./examples/multitenant
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"opaq"
)

func main() {
	dir, err := os.MkdirTemp("", "opaq-tenants")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	reg, err := opaq.NewEngineRegistry(opaq.EngineRegistryOptions[int64]{
		Defaults: opaq.EngineOptions{
			Config:  opaq.Config{RunLen: 1 << 10, SampleSize: 1 << 7},
			Stripes: 2,
		},
		CheckpointDir: dir,
		Codec:         opaq.Int64Codec{},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Close()

	// "lifetime" keeps every epoch; "recent" seals an epoch every 4096
	// elements and retains only the last 4 — a sliding window of roughly
	// the newest 16k elements.
	if _, err := reg.Create("lifetime", nil); err != nil {
		log.Fatal(err)
	}
	windowed := opaq.EngineOptions{
		Config:    opaq.Config{RunLen: 1 << 10, SampleSize: 1 << 7},
		Stripes:   2,
		Epoch:     opaq.EngineEpochPolicy{MaxElems: 4096},
		Retention: opaq.EngineRetention{Kind: opaq.RetainLastK, K: 4},
	}
	if _, err := reg.Create("recent", &windowed); err != nil {
		log.Fatal(err)
	}

	srv := httptest.NewServer(opaq.NewEngineRegistryHandler(reg, opaq.ParseInt64Key, opaq.EngineHandlerOptions{}))
	defer srv.Close()
	fmt.Printf("multi-tenant quantile service on %s (tenants: %v)\n\n", srv.URL, reg.Names())

	// A drifting stream: each phase's keys center an order of magnitude
	// higher than the last. Both tenants see identical data over HTTP.
	rng := rand.New(rand.NewSource(1))
	for phase := 0; phase < 4; phase++ {
		center := int64(1_000) << (4 * phase)
		for batch := 0; batch < 8; batch++ {
			keys := make([]string, 1024)
			for i := range keys {
				keys[i] = fmt.Sprint(center + rng.Int63n(center))
			}
			body := `{"keys":[` + strings.Join(keys, ",") + `]}`
			for _, tenant := range []string{"lifetime", "recent"} {
				resp, err := http.Post(srv.URL+"/t/"+tenant+"/ingest", "application/json", strings.NewReader(body))
				if err != nil {
					log.Fatal(err)
				}
				resp.Body.Close()
			}
		}
		fmt.Printf("phase %d (keys ≈ %d):\n", phase, center)
		for _, tenant := range []string{"lifetime", "recent"} {
			var q struct {
				Lower string `json:"lower"`
				Upper string `json:"upper"`
			}
			getJSON(srv.URL+"/t/"+tenant+"/quantile?phi=0.5", &q)
			var st struct {
				Epochs    int   `json:"epochs"`
				Evicted   int64 `json:"evicted_epochs"`
				RetainedN int64 `json:"retained_n"`
			}
			getJSON(srv.URL+"/t/"+tenant+"/stats", &st)
			fmt.Printf("  %-8s median in [%s, %s]  (ring %d epochs, %d evicted, %d retained elements)\n",
				tenant, q.Lower, q.Upper, st.Epochs, st.Evicted, st.RetainedN)
		}
	}
	fmt.Println("\nthe windowed tenant's median follows the drift; the lifetime tenant averages over all phases")

	// Checkpoint every tenant to its own file and boot a second registry
	// warm from the directory.
	if err := reg.CheckpointAll(); err != nil {
		log.Fatal(err)
	}
	reborn, err := opaq.NewEngineRegistry(opaq.EngineRegistryOptions[int64]{
		Defaults: opaq.EngineOptions{
			Config:  opaq.Config{RunLen: 1 << 10, SampleSize: 1 << 7},
			Stripes: 2,
		},
		CheckpointDir: dir,
		Codec:         opaq.Int64Codec{},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer reborn.Close()
	fmt.Printf("\nrebooted registry restored tenants %v:\n", reborn.Names())
	for _, name := range reborn.Names() {
		eng, err := reborn.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		b, err := eng.Quantile(0.5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s warm with n=%d, median in [%d, %d]\n", name, eng.N(), b.Lower, b.Upper)
	}
}

// getJSON decodes one GET response into out.
func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
