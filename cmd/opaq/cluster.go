package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"opaq/internal/cluster"
	"opaq/internal/engine"
	"opaq/internal/runio"
)

// cmdCoord runs the distributed tier's front door: a stateless
// coordinator that consistent-hashes tenants across a fixed fleet of
// workers (each an `opaq worker` process), routes ingest to the owning
// workers and answers quantile / selectivity / stats queries by
// scatter-gathering per-worker summaries and merging them — the same
// HTTP surface as a single server, so clients don't care which they
// talk to. When a worker is down, answers come from the survivors with
// "partial": true; the coordinator itself holds no data, so restarting
// it (e.g. with a new -workers fleet) loses nothing.
func cmdCoord(args []string) error {
	fs := flag.NewFlagSet("coord", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	workers := fs.String("workers", "", "comma-separated worker base URLs (e.g. http://h1:9001,http://h2:9001); required")
	spread := fs.Int("spread", 1, "distinct workers per tenant: ingest round-robins across them, queries merge them")
	vnodes := fs.Int("vnodes", 0, "consistent-hash virtual nodes per worker (0 = 64)")
	attempts := fs.Int("attempts", 0, "attempts per worker request before failing over (0 = 3)")
	backoff := fs.Duration("backoff", 0, "initial retry backoff, doubling per attempt (0 = 50ms)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request worker timeout")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	cacheBytes := fs.Int64("gather-cache", cluster.DefaultGatherCacheBytes,
		"gather-cache byte budget for cached worker summaries (0 disables the query fast path)")
	walDir := fs.String("wal-dir", "",
		"ingest write-ahead journal directory: batches no owner will take are journaled here and replayed when owners recover (empty disables journaling)")
	walMaxBytes := fs.Int64("wal-max-bytes", cluster.DefaultWALMaxBytes,
		"total on-disk byte budget across journals; appends past it fail the ingest 503")
	fs.Parse(args)

	if *workers == "" {
		return fmt.Errorf("missing -workers")
	}
	var fleet []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			fleet = append(fleet, strings.TrimRight(w, "/"))
		}
	}
	coord, err := cluster.New(cluster.Options[int64]{
		Workers:      fleet,
		Spread:       *spread,
		VirtualNodes: *vnodes,
		Codec:        runio.Int64Codec{},
		Parse:        engine.Int64Key,
		Client: &cluster.WorkerClient{
			// The pooled transport keeps worker connections warm across
			// the scatter-gather fan-out instead of redialing per query.
			HTTP:     cluster.NewWorkerHTTPClient(*timeout),
			Attempts: *attempts,
			Backoff:  *backoff,
		},
		GatherCacheBytes:   *cacheBytes,
		DisableGatherCache: *cacheBytes == 0,
		WALDir:             *walDir,
		WALMaxBytes:        *walMaxBytes,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: coord.Handler()}
	fmt.Printf("opaq: coordinating %d workers (spread %d) on http://%s\n",
		len(fleet), *spread, ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Printf("opaq: %v — draining in-flight queries\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// The drain timed out — likely handlers pinned in retry loops
			// against dead workers. Cancel the coordinator's lifetime
			// context to abort their backoffs, then close the listener
			// hard; shutdown must not hang on an unreachable fleet.
			coord.Close()
			srv.Close()
			return fmt.Errorf("graceful shutdown: %w", err)
		}
		fmt.Println("opaq: coordinator shutdown complete")
		return nil
	}
}
