// Wireclient: push elements into a running `opaq serve` over the binary
// ingest path — application/octet-stream frames on POST /ingest — using
// the opaqclient batching client. CI's serve smoke uses it to prove the
// path end to end; it doubles as the opaqclient usage example.
//
// Run with:
//
//	go run ./examples/wireclient -http http://localhost:8080 -tenant latency -n 10000
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"opaq"
	"opaq/opaqclient"
)

func main() {
	var (
		httpBase = flag.String("http", "", "base URL of an opaq serve HTTP API (e.g. http://localhost:8080)")
		tenant   = flag.String("tenant", "", "tenant to ingest into (empty = default tenant)")
		n        = flag.Int("n", 10_000, "elements to push")
		batch    = flag.Int("batch", 4096, "client batch size (flush trigger)")
		seed     = flag.Int64("seed", 42, "RNG seed for the pushed elements")
	)
	flag.Parse()
	if *httpBase == "" {
		log.Fatal("nothing to do: pass -http")
	}
	c := opaqclient.NewHTTP(*httpBase, opaq.Int64Codec{}, opaqclient.Options{Tenant: *tenant, MaxBatch: *batch})
	push(c, *n, *seed)
}

// push streams n pseudo-latencies through one client, retrying on server
// backpressure with the server's own hint.
func push(c *opaqclient.Client[int64], n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	for i := 0; i < n; i++ {
		v := int64(2000 + rng.ExpFloat64()*1500)
		for {
			err := c.Add(v)
			if err == nil {
				break
			}
			var bp *opaqclient.Backpressure
			if errors.As(err, &bp) {
				log.Printf("backpressure, retrying in %v", bp.RetryAfter)
				time.Sleep(bp.RetryAfter)
				continue
			}
			log.Fatalf("add: %v", err)
		}
	}
	if err := c.Close(); err != nil {
		var bp *opaqclient.Backpressure
		if errors.As(err, &bp) {
			log.Fatalf("final flush shed by server: %v", err)
		}
		log.Fatalf("close: %v", err)
	}
	fmt.Printf("pushed %d elements in %v; server n=%d\n", n, time.Since(start).Round(time.Millisecond), c.N())
}
