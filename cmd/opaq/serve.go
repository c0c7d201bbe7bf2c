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

	"opaq"
	"opaq/internal/engine"
)

// cmdServe runs the live quantile service: a registry of per-tenant
// engines ingesting int64 keys over HTTP — JSON or binary frames,
// content-negotiated on the same route — and answering quantile /
// selectivity / stats queries from epoch-cached snapshots. Summaries move
// through the epoch lifecycle (-epoch* seal triggers, -window / -retain-age
// retention), tenants checkpoint to separate files in -checkpoint-dir and
// restore from it on boot, and SIGINT/SIGTERM drain in-flight queries
// before exiting, checkpointing the final state.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	m := fs.Int("m", 1<<16, "run length (elements per run)")
	s := fs.Int("s", 1<<10, "samples per run (must divide m)")
	stripes := fs.Int("stripes", 0, "ingest stripes per tenant (0 = GOMAXPROCS)")
	epochElems := fs.Int64("epoch", 0, "seal an epoch when this many unsealed elements accumulate (0 = no count trigger)")
	epochBytes := fs.Int64("epoch-bytes", 0, "seal an epoch when unsealed bytes reach this bound (0 = no bytes trigger)")
	epochInterval := fs.Duration("epoch-interval", 0, "seal an epoch on this wall-clock tick (0 = no timer)")
	window := fs.Int("window", 0, "retain only the last K sealed epochs (0 = keep all; windowed serving)")
	retainAge := fs.Duration("retain-age", 0, "retain only epochs sealed within this trailing window (0 = keep all)")
	compact := fs.Bool("compact", false, "binary-buddy compact sealed epochs after each rotation: answers unchanged, ring depth bounded at O(log seals)")
	compactMin := fs.Int("compact-min", 0, "compact only while the epoch ring holds more than this many entries (0 = always; preserves eviction granularity for shallow rings)")
	tenants := fs.String("tenants", "", "comma-separated tenants to create at boot (the default tenant always exists)")
	checkpointDir := fs.String("checkpoint-dir", "", "directory of per-tenant checkpoints: restored on boot, written on graceful shutdown")
	maxBody := fs.Int64("max-body", 0, "cap one POST /ingest body in bytes (0 = 8 MiB default, -1 = uncapped)")
	maxPending := fs.Int64("max-pending", 0, "shed ingests with 429 while unsealed bytes exceed this bound (0 = no shedding)")
	load := fs.String("load", "", "run file to bulk-load into the default tenant before serving")
	shards := fs.Int("shards", 4, "bulk-load shard count")
	restorePath := fs.String("restore", "", "checkpoint file to restore into the default tenant before serving")
	checkpointPath := fs.String("checkpoint", "", "default tenant's checkpoint file written after a graceful shutdown")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	fs.Parse(args)

	if *window > 0 && *retainAge > 0 {
		return fmt.Errorf("-window and -retain-age are mutually exclusive")
	}
	// Retention and pending-bytes backpressure both depend on epochs being
	// sealed, and the server exposes no explicit Rotate: without a seal
	// trigger, -window/-retain-age would silently serve lifetime statistics
	// and -max-pending would turn into a permanent 429 once crossed.
	if noTrigger := *epochElems <= 0 && *epochBytes <= 0 && *epochInterval <= 0; noTrigger {
		if *window > 0 || *retainAge > 0 {
			return fmt.Errorf("-window/-retain-age need a seal trigger: set -epoch, -epoch-bytes or -epoch-interval")
		}
		if *maxPending > 0 {
			return fmt.Errorf("-max-pending needs a seal trigger to ever drain: set -epoch, -epoch-bytes or -epoch-interval")
		}
	}
	retention := opaq.EngineRetention{Kind: opaq.RetainAll}
	if *window > 0 {
		retention = opaq.EngineRetention{Kind: opaq.RetainLastK, K: *window}
	} else if *retainAge > 0 {
		retention = opaq.EngineRetention{Kind: opaq.RetainMaxAge, MaxAge: *retainAge}
	}
	defaults := opaq.EngineOptions{
		Config:  opaq.Config{RunLen: *m, SampleSize: *s},
		Stripes: *stripes,
		Epoch: opaq.EngineEpochPolicy{
			MaxElems: *epochElems,
			MaxBytes: *epochBytes,
			Interval: *epochInterval,
		},
		Retention:  retention,
		Compaction: opaq.EngineCompactionPolicy{Enabled: *compact, MinEpochs: *compactMin},
		// -max-pending stays an HTTP-layer bound here: the handler heals
		// (rotates) before shedding, which engine-side admission — built
		// for writers that bypass HTTP — deliberately does not.
	}
	if *maxPending > 0 {
		// A bound the tenants' partial runs alone can cross would 429
		// every ingest forever; admin creates get the same check.
		if err := engine.CheckPendingBound[int64](defaults, "-max-pending", *maxPending); err != nil {
			return fmt.Errorf("%w; raise -max-pending or lower -m/-stripes", err)
		}
	}

	reg, err := opaq.NewEngineRegistry(opaq.EngineRegistryOptions[int64]{
		Defaults:      defaults,
		CheckpointDir: *checkpointDir,
		Codec:         opaq.Int64Codec{},
	})
	if err != nil {
		return err
	}
	defer reg.Close()
	warmDefault := false
	for _, name := range reg.Names() {
		eng, err := reg.Get(name)
		if err != nil {
			continue
		}
		if name == opaq.DefaultTenant {
			warmDefault = true
		}
		fmt.Printf("opaq: restored tenant %q (n=%d) from %s\n", name, eng.N(), *checkpointDir)
	}
	boot := []string{opaq.DefaultTenant}
	if *tenants != "" {
		boot = append(boot, strings.Split(*tenants, ",")...)
	}
	for _, name := range boot {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := reg.Get(name); err == nil {
			continue // restored from a checkpoint
		}
		if _, err := reg.Create(name, nil); err != nil {
			return fmt.Errorf("creating tenant %q: %w", name, err)
		}
	}

	eng, err := reg.Get(opaq.DefaultTenant)
	if err != nil {
		return err
	}
	if *restorePath != "" {
		// A restore lands as its own epoch, so layering the seed file on
		// top of a default tenant already warm from -checkpoint-dir would
		// absorb the same history twice (and again on every reboot). The
		// warm state wins; -restore seeds cold boots only.
		if warmDefault {
			fmt.Printf("opaq: skipping -restore %s: default tenant already warm from %s\n", *restorePath, *checkpointDir)
		} else {
			if err := eng.RestoreFile(*restorePath, opaq.Int64Codec{}); err != nil {
				return fmt.Errorf("restore %s: %w", *restorePath, err)
			}
			fmt.Printf("opaq: restored %d elements from %s\n", eng.N(), *restorePath)
		}
	}
	if *load != "" {
		// Like -restore, a bulk load lands as its own epoch: on a warm
		// reboot the checkpoint already holds it.
		if warmDefault {
			fmt.Printf("opaq: skipping -load %s: default tenant already warm from %s\n", *load, *checkpointDir)
		} else {
			sections, err := opaq.ShardFile(*load, opaq.Int64Codec{}, *shards, *m)
			if err != nil {
				return fmt.Errorf("bulk load %s: %w", *load, err)
			}
			if err := eng.BulkLoad(sections); err != nil {
				return fmt.Errorf("bulk load %s: %w", *load, err)
			}
			fmt.Printf("opaq: bulk-loaded %s (%d shards, n=%d)\n", *load, *shards, eng.N())
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	handler := opaq.NewEngineRegistryHandler(reg, opaq.ParseInt64Key, opaq.EngineHandlerOptions{
		MaxBodyBytes:    *maxBody,
		MaxPendingBytes: *maxPending,
	})
	srv := &http.Server{Handler: handler}
	fmt.Printf("opaq: serving tenants %v on http://%s\n", reg.Names(), ln.Addr())

	// The signal handler is installed before the server accepts its first
	// request, so a shutdown signal can never hit the default handler once
	// the service is reachable.
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
			return fmt.Errorf("graceful shutdown: %w", err)
		}
		if *checkpointDir != "" {
			if err := reg.CheckpointAll(); err != nil {
				return fmt.Errorf("final checkpoints: %w", err)
			}
			fmt.Printf("opaq: checkpointed %d tenants to %s\n", len(reg.Names()), *checkpointDir)
		}
		if *checkpointPath != "" {
			if err := eng.CheckpointFile(*checkpointPath, opaq.Int64Codec{}); err != nil {
				return fmt.Errorf("final checkpoint: %w", err)
			}
			fmt.Printf("opaq: checkpointed %d elements to %s\n", eng.N(), *checkpointPath)
		}
		fmt.Println("opaq: shutdown complete")
		return nil
	}
}
