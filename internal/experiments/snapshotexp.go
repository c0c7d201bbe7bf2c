package experiments

import (
	"fmt"
	"time"

	"opaq/internal/core"
	"opaq/internal/datagen"
	"opaq/internal/engine"
)

// SnapshotSweep is an extension experiment beyond the paper's evaluation:
// it measures two-level snapshot maintenance under ingest pressure. Both
// rows pre-load the same keep-all, uncompacted engine shape with 1000
// sealed epochs, then drive the worst-case serving loop — one ingested
// element followed by one query, so every query misses the version cache
// and rebuilds. The full-remerge row (DisableFrozenPrefix) re-merges the
// whole 1001-entry merge set per rebuild, O(retained window); the
// two-level row folds the stripes' unsealed tail into the cached
// frozen-prefix merge, O(tail). Answers are byte-identical by
// construction (the prefix-cache equivalence harness in internal/engine
// enforces it); what changes is the rebuild rate.
func SnapshotSweep(scale int) (*Table, error) {
	const (
		runLen = 256
		epochs = 1000
	)
	// The ring depth IS the scenario, so it stays fixed; scale trims only
	// the measured steady-state cycles (floor 200 keeps the rates
	// meaningful at heavy scale-down).
	cycles := max(200, 2000/max(scale, 1))
	cfg := core.Config{RunLen: runLen, SampleSize: 32}

	t := &Table{
		ID:     "Extension: snapshot",
		Title:  fmt.Sprintf("Two-level snapshot maintenance under ingest (%d sealed epochs, %d ingest+query cycles)", epochs, cycles),
		Header: []string{"Rebuild path", "rebuilds/sec", "ns/rebuild", "prefix hits", "prefix rebuilds"},
		Notes: []string{
			"every cycle ingests one element and queries: each query misses the version cache and rebuilds",
			"full remerge re-merges ring+tail per rebuild; two-level folds the tail into the cached frozen-prefix merge",
		},
	}
	var fullRate float64
	for _, c := range []struct {
		label string
		key   string
		full  bool
	}{
		{"full remerge (prefix cache off)", "full_remerge", true},
		{"two-level (frozen prefix + tail fold)", "two_level", false},
	} {
		e, err := engine.New[int64](engine.Options{
			Config:              cfg,
			Stripes:             1,
			DisableFrozenPrefix: c.full,
		})
		if err != nil {
			return nil, err
		}
		xs := datagen.Generate(datagen.NewUniform(seqSeed, 1<<62), epochs*runLen+cycles+1)
		for ep := 0; ep < epochs; ep++ {
			if err := e.IngestBatch(xs[ep*runLen : (ep+1)*runLen]); err != nil {
				return nil, err
			}
			if sealed, err := e.Rotate(); err != nil || !sealed {
				return nil, fmt.Errorf("epoch %d: sealed=%v err=%v", ep, sealed, err)
			}
		}
		live := xs[epochs*runLen:]
		// One warm-up cycle performs the cold prefix merge (two-level) and
		// warms the merge-buffer pools, so the loop measures steady state.
		if err := e.Ingest(live[0]); err != nil {
			return nil, err
		}
		if _, err := e.Quantile(0.5); err != nil {
			return nil, err
		}
		before := e.Stats()
		start := time.Now()
		for i := 0; i < cycles; i++ {
			if err := e.Ingest(live[i+1]); err != nil {
				return nil, err
			}
			if _, err := e.Quantile(0.5); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start)
		st := e.Stats()
		rebuilds := st.Merges - before.Merges
		rate := float64(rebuilds) / elapsed.Seconds()
		if c.full {
			fullRate = rate
		}
		t.AddRow(c.label,
			fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%d", elapsed.Nanoseconds()/max(rebuilds, 1)),
			fmt.Sprintf("%d", st.PrefixHits),
			fmt.Sprintf("%d", st.PrefixRebuilds))
		// Gated as a rate (rebuilds/sec), not a wall time; the baseline
		// row is context only — it exists to compute the speedup.
		t.AddMetric("engine/snapshot_under_ingest/"+c.key+"/rebuilds_per_sec", rate, "rebuilds/sec", "higher", !c.full)
		if !c.full {
			// The headline acceptance number: two-level must stay well
			// clear of the full remerge at 1000-epoch depth. A ratio of
			// two same-machine runs, so machine-load noise divides out.
			t.AddMetric("engine/snapshot_under_ingest/speedup", rate/fullRate, "x", "higher", true)
		}
	}
	return t, nil
}
