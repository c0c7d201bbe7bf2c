package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"opaq/internal/core"
	"opaq/internal/runio"
)

func testRegistryOptions(dir string) RegistryOptions[int64] {
	return RegistryOptions[int64]{
		Defaults: Options{
			Config:  core.Config{RunLen: 512, SampleSize: 64},
			Stripes: 2,
		},
		CheckpointDir: dir,
		Codec:         runio.Int64Codec{},
	}
}

// TestRegistryLifecycle drives create / get / list / delete and the error
// cases.
func TestRegistryLifecycle(t *testing.T) {
	r, err := NewRegistry(testRegistryOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if _, err := r.Get("latency"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("get missing tenant err = %v, want ErrUnknownTenant", err)
	}
	a, err := r.Create("latency", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("latency", nil); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate create err = %v, want ErrTenantExists", err)
	}
	for _, bad := range []string{"", "../etc", "a/b", ".hidden", "käse", "x..y", string(make([]byte, 80))} {
		if _, err := r.Create(bad, nil); !errors.Is(err, ErrTenantName) {
			t.Errorf("create %q err = %v, want ErrTenantName", bad, err)
		}
	}
	// A tenant with its own options is independent of the defaults.
	custom := Options{
		Config:    core.Config{RunLen: 256, SampleSize: 16},
		Stripes:   1,
		Retention: Retention{Kind: RetainLastK, K: 2},
	}
	if _, err := r.Create("bytes_sent", &custom); err != nil {
		t.Fatal(err)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "bytes_sent" || names[1] != "latency" {
		t.Fatalf("names = %v", names)
	}
	got, err := r.Get("latency")
	if err != nil || got != a {
		t.Fatalf("get returned %p (%v), want %p", got, err, a)
	}
	if err := r.Delete("bytes_sent"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("bytes_sent"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("double delete err = %v, want ErrUnknownTenant", err)
	}
	if got := r.Names(); len(got) != 1 {
		t.Fatalf("names after delete = %v", got)
	}
}

// TestRegistryCheckpointRestoreWarm pins the multi-tenant acceptance
// criterion's persistence half: tenants ingesting concurrently checkpoint
// to separate files and a new registry over the same directory boots them
// warm, serving independent answers.
func TestRegistryCheckpointRestoreWarm(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(testRegistryOptions(dir))
	if err != nil {
		t.Fatal(err)
	}

	// Two tenants with disjoint key ranges ingest concurrently.
	tenants := map[string]int64{"orders.price": 1 << 20, "users.age": 1 << 40}
	for name := range tenants {
		if _, err := r.Create(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for name, base := range tenants {
		wg.Add(1)
		go func(name string, base int64) {
			defer wg.Done()
			eng, err := r.Get(name)
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(base))
			for i := 0; i < 20; i++ {
				batch := make([]int64, 300)
				for j := range batch {
					batch[j] = base + rng.Int63n(1000)
				}
				if err := eng.IngestBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(name, base)
	}
	wg.Wait()
	if err := r.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	for name := range tenants {
		if _, err := os.Stat(filepath.Join(dir, name+checkpointExt)); err != nil {
			t.Fatalf("tenant %q has no checkpoint file: %v", name, err)
		}
	}

	// Boot a fresh registry over the same directory: both tenants restore
	// warm and answer from their own (disjoint) key ranges.
	r2, err := NewRegistry(testRegistryOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Names(); len(got) != 2 {
		t.Fatalf("restored tenants = %v", got)
	}
	for name, base := range tenants {
		eng, err := r2.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if eng.N() != 6000 {
			t.Fatalf("tenant %q restored N = %d, want 6000", name, eng.N())
		}
		b, err := eng.Quantile(0.5)
		if err != nil {
			t.Fatal(err)
		}
		if b.Lower < base || b.Upper >= base+1000 {
			t.Fatalf("tenant %q median [%d, %d] outside its key range [%d, %d)",
				name, b.Lower, b.Upper, base, base+1000)
		}
		// The restored summary landed as a restore epoch.
		ring := eng.Epochs()
		if len(ring) != 1 || ring[0].Source != EpochRestore {
			t.Fatalf("tenant %q restored ring = %+v", name, ring)
		}
	}

	// Delete removes the checkpoint so the tenant stays gone on reboot.
	if err := r2.Delete("users.age"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "users.age"+checkpointExt)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("deleted tenant's checkpoint still on disk (err=%v)", err)
	}
	r3, err := NewRegistry(testRegistryOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if got := r3.Names(); len(got) != 1 || got[0] != "orders.price" {
		t.Fatalf("post-delete reboot tenants = %v", got)
	}
}

// TestRegistryRestoreAdaptsStep verifies restore-on-boot of a checkpoint
// whose step differs from the registry defaults: SampleSize is re-derived
// so the engine can merge it, instead of failing the boot.
func TestRegistryRestoreAdaptsStep(t *testing.T) {
	dir := t.TempDir()
	// Write a checkpoint with step 4 (RunLen 64 / SampleSize 16).
	src, err := New[int64](Options{Config: core.Config{RunLen: 64, SampleSize: 16}, Stripes: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		if err := src.Ingest(rng.Int63n(1 << 30)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.CheckpointFile(filepath.Join(dir, "metric"+checkpointExt), runio.Int64Codec{}); err != nil {
		t.Fatal(err)
	}

	// Defaults use step 8 (512/64); 512 % 4 == 0, so the boot adapts
	// SampleSize to 128.
	r, err := NewRegistry(testRegistryOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	eng, err := r.Get("metric")
	if err != nil {
		t.Fatal(err)
	}
	if eng.N() != 500 {
		t.Fatalf("restored N = %d", eng.N())
	}
	// Live ingest merges cleanly with the adapted step.
	if err := eng.IngestBatch(make([]int64, 600)); err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Summary.N() != 1100 {
		t.Fatalf("merged N = %d", snap.Summary.N())
	}

	// An incompatible step (not dividing RunLen) fails the boot loudly.
	dir2 := t.TempDir()
	src2, err := New[int64](Options{Config: core.Config{RunLen: 63, SampleSize: 9}, Stripes: 1}) // step 7
	if err != nil {
		t.Fatal(err)
	}
	if err := src2.IngestBatch(make([]int64, 100)); err != nil {
		t.Fatal(err)
	}
	if err := src2.CheckpointFile(filepath.Join(dir2, "bad"+checkpointExt), runio.Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(testRegistryOptions(dir2)); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("incompatible-step boot err = %v, want ErrIncompatible", err)
	}
}

// TestRegistryNoDir pins the in-memory registry: no persistence, and
// CheckpointAll reports a config error instead of writing nowhere.
func TestRegistryNoDir(t *testing.T) {
	opts := testRegistryOptions("")
	opts.Codec = nil
	r, err := NewRegistry(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Create("x", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckpointAll(); !errors.Is(err, core.ErrConfig) {
		t.Fatalf("CheckpointAll without dir err = %v, want ErrConfig", err)
	}
	if err := r.Delete("x"); err != nil {
		t.Fatal(err)
	}
	// A checkpoint dir without a codec is rejected up front.
	bad := testRegistryOptions(t.TempDir())
	bad.Codec = nil
	if _, err := NewRegistry(bad); !errors.Is(err, core.ErrConfig) {
		t.Fatalf("dir-without-codec err = %v, want ErrConfig", err)
	}
}

// TestRegistryOptionsPersistence pins the per-tenant config sidecar: a
// tenant created with its own Options gets exactly that configuration back
// after a reboot — stripes, retention, epoch policy — not the registry
// defaults with a step-adapted SampleSize. A tenant created but never
// checkpointed survives via its sidecar alone.
func TestRegistryOptionsPersistence(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(testRegistryOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	custom := Options{
		Config:    core.Config{RunLen: 256, SampleSize: 16},
		Stripes:   5,
		Epoch:     EpochPolicy{MaxElems: 4096},
		Retention: Retention{Kind: RetainLastK, K: 3},
	}
	eng, err := r.Create("custom", &custom)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "custom"+optionsExt)); err != nil {
		t.Fatalf("options sidecar not written at create: %v", err)
	}
	if _, err := r.Create("fresh", nil); err != nil {
		t.Fatal(err)
	}
	batch := make([]int64, 2*256)
	for i := range batch {
		batch[i] = int64(i)
	}
	if err := eng.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	// CheckpointAll covers both tenants; dropping "fresh"'s checkpoint
	// afterwards exercises the sidecar-only restore path.
	if err := r.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "fresh"+checkpointExt)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	// Sidecars written while core.Config still had a Seed field, and
	// Options a Buckets field, carry them; they must keep restoring, with
	// the fields ignored.
	legacy := `{
  "Config": {
    "RunLen": 256,
    "SampleSize": 16,
    "Seed": 7,
    "Workers": 0
  },
  "Stripes": 5,
  "Buckets": 32,
  "Epoch": {
    "MaxElems": 4096,
    "MaxBytes": 0,
    "Interval": 0
  },
  "Retention": {
    "Kind": 1,
    "K": 3,
    "MaxAge": 0
  },
  "Compaction": {
    "Enabled": false,
    "MinEpochs": 0
  },
  "MaxPending": 0,
  "DisableFrozenPrefix": false
}
`
	if err := os.WriteFile(filepath.Join(dir, "legacy"+optionsExt), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := NewRegistry(testRegistryOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got, err := r2.TenantOptions("custom")
	if err != nil {
		t.Fatal(err)
	}
	if got != custom {
		t.Errorf("restored options = %+v, want %+v", got, custom)
	}
	eng2, err := r2.Get("custom")
	if err != nil {
		t.Fatal(err)
	}
	if eng2.N() != int64(len(batch)) {
		t.Errorf("restored N = %d, want %d", eng2.N(), len(batch))
	}
	if st := eng2.Stats(); st.Stripes != 5 {
		t.Errorf("restored stripes = %d, want 5", st.Stripes)
	}
	// The never-checkpointed tenant survives via its sidecar, empty.
	freshEng, err := r2.Get("fresh")
	if err != nil {
		t.Fatalf("sidecar-only tenant lost on reboot: %v", err)
	}
	if freshEng.N() != 0 {
		t.Errorf("sidecar-only tenant N = %d, want 0", freshEng.N())
	}
	if got, err := r2.TenantOptions("legacy"); err != nil || got != custom {
		t.Errorf("legacy sidecar restored options = %+v (err %v), want %+v", got, err, custom)
	}

	// Delete removes both files so the tenant stays gone on the next boot.
	if err := r2.Delete("custom"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "custom"+optionsExt)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("options sidecar survives delete: %v", err)
	}
}

// TestIdleTenantsHoldNoRunMemory pins that a tenant costs what it holds:
// a stripe borrows its run buffer when a run's first key arrives, so
// tenants created at the product default m = 65 536 and never written to
// hold no run memory, at any stripe count.
func TestIdleTenantsHoldNoRunMemory(t *testing.T) {
	const tenants = 100
	const perTenant = 8 << 10 // bytes of live heap each tenant may add
	for _, stripes := range []int{2, 8} {
		reg, err := NewRegistry(RegistryOptions[int64]{Defaults: Options{
			Config:  core.Config{RunLen: 1 << 16, SampleSize: 1 << 10},
			Stripes: stripes,
		}})
		if err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		for i := 0; i < tenants; i++ {
			if _, err := reg.Create(fmt.Sprintf("idle%d", i), nil); err != nil {
				t.Fatal(err)
			}
		}
		grown := int64(liveHeap()) - int64(before)
		runtime.KeepAlive(reg)
		t.Logf("stripes %d: %.1f KiB of live heap per idle tenant", stripes, float64(grown)/tenants/1024)
		if grown > tenants*perTenant {
			t.Errorf("stripes %d: %d idle tenants grew the live heap by %.1f KiB each, want ≤ %d KiB",
				stripes, tenants, float64(grown)/tenants/1024, perTenant>>10)
		}
		reg.Close()
	}
}

// TestPartialStripesHoldTheirKeys pins that a partial run costs the keys
// it holds: a stripe's run buffer starts at the keys of its first batch
// and grows toward RunLen as keys arrive, so tenants at the product
// default m = 65 536 with 64 keys in each stripe hold a few KiB each, at
// any stripe count, where a whole-run buffer per stripe would hold
// 512 KiB.
func TestPartialStripesHoldTheirKeys(t *testing.T) {
	const tenants = 100
	const perTenant = 8 << 10 // bytes of live heap each tenant may add
	batch := make([]int64, 64)
	for i := range batch {
		batch[i] = int64(i * 7919 % 1000)
	}
	for _, stripes := range []int{2, 8} {
		reg, err := NewRegistry(RegistryOptions[int64]{Defaults: Options{
			Config:  core.Config{RunLen: 1 << 16, SampleSize: 1 << 10},
			Stripes: stripes,
		}})
		if err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		for i := 0; i < tenants; i++ {
			eng, err := reg.Create(fmt.Sprintf("partial%d", i), nil)
			if err != nil {
				t.Fatal(err)
			}
			for range stripes { // ingest round-robins: one batch per stripe
				if err := eng.IngestBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			if n := eng.N(); n != int64(stripes*len(batch)) {
				t.Fatalf("tenant %d holds %d keys, want %d", i, n, stripes*len(batch))
			}
		}
		grown := int64(liveHeap()) - int64(before)
		runtime.KeepAlive(reg)
		t.Logf("stripes %d: %.1f KiB of live heap per tenant with %d keys a stripe", stripes, float64(grown)/tenants/1024, len(batch))
		if grown > tenants*perTenant {
			t.Errorf("stripes %d: %d tenants with %d keys a stripe grew the live heap by %.1f KiB each, want ≤ %d KiB",
				stripes, tenants, len(batch), float64(grown)/tenants/1024, perTenant>>10)
		}
		reg.Close()
	}
}

// liveHeap returns the bytes of live heap after two full collections:
// the first moves every sync.Pool's idle buffers to its victim cache and
// the second frees them, so buffers that earlier work left idle in core's
// run pool count on neither side of a difference.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
