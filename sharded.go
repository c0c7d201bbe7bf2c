package opaq

import (
	"cmp"

	"opaq/internal/parallel"
	"opaq/internal/runio"
)

// BuildSharded builds one Summary over the per-shard datasets: each shard
// runs a full core Build in its own goroutine (cfg.Workers applies
// per shard, and shards may be disk-resident run files), and the shard
// summaries are merged in one k-way pass.
//
// When every shard but the last holds a whole number of runs
// (Count % cfg.RunLen == 0), the result is bit-identical to a sequential
// Build over the concatenation of the shards — the deterministic-sharding
// guarantee the engine is tested on. See parallel.BuildSharded.
func BuildSharded[T cmp.Ordered](datasets []Dataset[T], cfg Config) (*Summary[T], error) {
	return parallel.BuildSharded(datasets, cfg)
}

// BuildShardedFromSlice is BuildSharded over an in-memory slice: the slice
// is cut into shards run-aligned contiguous pieces (MemoryShards), so the
// result is bit-identical to BuildFromSlice(xs, cfg) for every shard
// count. Intended for tests, examples and moderate inputs; large inputs
// should shard into run files and use BuildSharded directly.
func BuildShardedFromSlice[T cmp.Ordered](xs []T, cfg Config, shards int) (*Summary[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	datasets, err := MemoryShards(xs, max(shards, 1), cfg.RunLen)
	if err != nil {
		return nil, err
	}
	return BuildSharded(datasets, cfg)
}

// MemoryShards cuts xs into run-aligned contiguous shards (ShardSlices) and
// wraps each as an in-memory Dataset whose modeled I/O accounting charges
// the element type's real width — a float32 shard is modeled at 4 bytes per
// element, not 8. This is the dataset layout BuildShardedFromSlice builds
// over, exposed so callers can inspect per-shard Stats.
func MemoryShards[T any](xs []T, shards, runLen int) ([]Dataset[T], error) {
	pieces, err := ShardSlices(xs, shards, runLen)
	if err != nil {
		return nil, err
	}
	datasets := make([]Dataset[T], len(pieces))
	for i, sh := range pieces {
		datasets[i] = runio.NewMemoryDataset(sh, runio.ElemSize[T]())
	}
	return datasets, nil
}

// ShardSlices cuts xs into run-aligned contiguous shards suitable for a
// bit-deterministic sharded build; see parallel.ShardSlices.
func ShardSlices[T any](xs []T, shards, runLen int) ([][]T, error) {
	return parallel.ShardSlices(xs, shards, runLen)
}

// ShardFile splits the run file at path into `shards` run-aligned section
// datasets without materializing it: each section scans its own element
// range of the file (one seek plus a sequential read). Feed the result to
// BuildSharded for a sharded build over a single large file whose summary
// is bit-identical to the sequential build's, in O(shards · RunLen)
// memory.
func ShardFile[T any](path string, codec Codec[T], shards, runLen int) ([]Dataset[T], error) {
	fd, err := runio.OpenFile(path, codec)
	if err != nil {
		return nil, err
	}
	sections, err := fd.Sections(shards, runLen)
	if err != nil {
		return nil, err
	}
	out := make([]Dataset[T], len(sections))
	for i, s := range sections {
		out[i] = s
	}
	return out, nil
}
