// Package opaq is a Go implementation of OPAQ — the one-pass deterministic
// algorithm of Alsabti, Ranka and Singh for accurately estimating quantiles
// of disk-resident data (VLDB 1997) — together with the substrates and
// applications from the paper: a disk run-file format, workload generators,
// competing estimators, a simulated parallel formulation, equi-depth
// histograms and external sorting.
//
// # The algorithm in brief
//
// OPAQ reads the data once, as r runs of m elements. From each run it
// extracts s regular samples (the elements of exact local ranks m/s, 2m/s,
// …, m) and merges all sample lists into one sorted list. For any quantile
// fraction φ it then returns two sample values e_l ≤ e_φ ≤ e_u such that at
// most n/s data elements lie between the true quantile and either bound —
// a deterministic, distribution-free guarantee (the paper's Lemmas 1–3).
// Memory use is m + r·s elements; every additional quantile costs O(1).
//
// # Quick start
//
//	summary, err := opaq.BuildFromSlice(keys, opaq.Config{RunLen: 1 << 16, SampleSize: 1 << 10})
//	if err != nil { ... }
//	b, err := summary.Bounds(0.5) // deterministic enclosure of the median
//	fmt.Println(b.Lower, b.Upper, b.MaxBelow, b.MaxAbove)
//
// For data on disk, write it with WriteFile (or stream it with
// WriteFileFunc), open it with OpenFile, and call BuildFromDataset; the
// build performs exactly one sequential pass. ExactQuantile spends one
// additional pass to refine an enclosure into the exact value. Merge
// combines summaries of disjoint data for incremental maintenance.
//
// # Concurrency and element types
//
// Config.Workers sets how many goroutines drain the build's scan (0 means
// GOMAXPROCS). Each samples whole runs into its own StreamBuilder, the
// builders' summaries are merged at the end, and above one worker the
// reader is prefetched so disk I/O overlaps the sampling. The resulting
// Summary is bit-identical for every worker count. The whole disk-facing surface —
// OpenFile, WriteFile, Sort, SaveSummary, LoadSummary — is generic over a
// Codec describing the element encoding; Int64Codec, Float64Codec,
// Uint64Codec and the 32-bit variants are provided, and the OpenInt64File
// / SaveSummaryInt64-style helpers remain as thin wrappers.
//
// # Sharded builds
//
// BuildSharded scales the build across per-shard datasets: each shard
// runs the full local sample phase concurrently and the shard summaries
// are merged in one k-way pass. With run-aligned shards the result is
// bit-identical to a sequential Build over the concatenated data.
// ParallelRun executes the paper's Section 3 parallel formulation
// (PSRS-style sample merge, or a bitonic merge-split network) on the
// simulated machine of the paper's evaluation instead, reporting modeled
// phase times.
//
// # Serving
//
// Engine is the live counterpart of the batch builds: a long-lived
// service with lock-striped concurrent ingest, version-cached
// single-flight merged snapshots, checkpoint/restore through the
// SaveSummary format, and a bulk-load path over run files. NewEngineHandler
// exposes it over HTTP/JSON (the API `opaq serve` speaks).
//
// The subpackages under internal are the implementation; this package is
// the supported surface.
package opaq

import (
	"cmp"
	"io"

	"opaq/internal/core"
	"opaq/internal/datagen"
	"opaq/internal/extsort"
	"opaq/internal/histogram"
	"opaq/internal/multipass"
	"opaq/internal/runio"
)

// Config fixes the sample-phase parameters: RunLen is the paper's m,
// SampleSize its s. See core.Config for the constraints.
type Config = core.Config

// Summary is a one-pass quantile summary; see core.Summary.
type Summary[T cmp.Ordered] = core.Summary[T]

// Bounds is a deterministic quantile enclosure; see core.Bounds.
type Bounds[T cmp.Ordered] = core.Bounds[T]

// Plan is a memory-budgeted parameter choice; see core.Plan.
type Plan = core.Plan

// Dataset is a rescannable element source; see runio.Dataset.
type Dataset[T any] = runio.Dataset[T]

// RunReader is a sequential run iterator; see runio.RunReader.
type RunReader[T any] = runio.RunReader[T]

// Codec describes how elements of type T are serialized into run files and
// summary checkpoints; see runio.Codec.
type Codec[T any] = runio.Codec[T]

// The built-in fixed-width codecs.
type (
	// Int64Codec encodes int64 keys little-endian.
	Int64Codec = runio.Int64Codec
	// Float64Codec encodes float64 keys via their IEEE-754 bits.
	Float64Codec = runio.Float64Codec
	// Uint64Codec encodes uint64 keys little-endian.
	Uint64Codec = runio.Uint64Codec
	// Int32Codec encodes int32 keys little-endian.
	Int32Codec = runio.Int32Codec
	// Uint32Codec encodes uint32 keys little-endian.
	Uint32Codec = runio.Uint32Codec
	// Float32Codec encodes float32 keys via their IEEE-754 bits.
	Float32Codec = runio.Float32Codec
)

// Sentinel errors re-exported from the core.
var (
	// ErrConfig reports an invalid Config.
	ErrConfig = core.ErrConfig
	// ErrEmpty reports an operation on an empty summary.
	ErrEmpty = core.ErrEmpty
	// ErrPhi reports a quantile fraction outside (0, 1].
	ErrPhi = core.ErrPhi
	// ErrIncompatible reports summaries that cannot be merged.
	ErrIncompatible = core.ErrIncompatible
	// ErrNaN reports a NaN key, which has no rank.
	ErrNaN = core.ErrNaN
)

// Build runs the one-pass sample phase over a run reader.
func Build[T cmp.Ordered](rr RunReader[T], cfg Config) (*Summary[T], error) {
	return core.Build(rr, cfg)
}

// BuildFromDataset runs the sample phase over a fresh scan of ds.
func BuildFromDataset[T cmp.Ordered](ds Dataset[T], cfg Config) (*Summary[T], error) {
	return core.BuildFromDataset(ds, cfg)
}

// BuildFromSlice runs the sample phase over an in-memory slice.
func BuildFromSlice[T cmp.Ordered](xs []T, cfg Config) (*Summary[T], error) {
	return core.BuildFromSlice(xs, cfg)
}

// Merge combines two summaries built with the same m/s ratio into one
// covering the union of their data (incremental maintenance).
func Merge[T cmp.Ordered](a, b *Summary[T]) (*Summary[T], error) {
	return core.Merge(a, b)
}

// ExactQuantile refines a summary's enclosure of the φ-quantile into the
// exact value with one additional pass over the dataset.
func ExactQuantile[T cmp.Ordered](ds Dataset[T], s *Summary[T], phi float64) (T, error) {
	return core.ExactQuantile(ds, s, phi)
}

// PlanConfig chooses (RunLen, SampleSize) for n elements under a memory
// budget of memElems elements, targeting q quantiles.
func PlanConfig(n, memElems int64, q int) (Plan, error) {
	return core.PlanConfig(n, memElems, q)
}

// NewMemoryDataset wraps an in-memory slice as a Dataset; elemSize is the
// modeled on-disk element width in bytes (use ElemSize[T]() for the
// element type's real width — 8 for int64/float64, 4 for float32).
func NewMemoryDataset[T any](xs []T, elemSize int) Dataset[T] {
	return runio.NewMemoryDataset(xs, elemSize)
}

// ElemSize returns the modeled on-disk width in bytes of one element of
// type T — the width the built-in codecs encode at for every fixed-width
// numeric key type.
func ElemSize[T any]() int {
	return runio.ElemSize[T]()
}

// ReadAll materializes a whole dataset in memory (one sequential scan).
// Intended for moderate inputs; the build entry points never need it.
func ReadAll[T any](ds Dataset[T]) ([]T, error) {
	return runio.ReadAll(ds)
}

// OpenFile opens a run file of T keys as a Dataset; codec must match the
// kind recorded in the file header.
func OpenFile[T any](path string, codec Codec[T]) (Dataset[T], error) {
	return runio.OpenFile(path, codec)
}

// WriteFile writes xs to a run file at path using codec.
func WriteFile[T any](path string, codec Codec[T], xs []T) error {
	return runio.WriteFile(path, codec, xs)
}

// WriteFileFunc streams n generated keys to a run file without
// materializing them; gen(i) returns the i-th key.
func WriteFileFunc[T any](path string, codec Codec[T], n int64, gen func(i int64) T) error {
	return runio.WriteFileFunc(path, codec, n, gen)
}

// OpenInt64File opens a run file of int64 keys as a Dataset.
func OpenInt64File(path string) (Dataset[int64], error) {
	return OpenFile[int64](path, runio.Int64Codec{})
}

// OpenFloat64File opens a run file of float64 keys as a Dataset.
func OpenFloat64File(path string) (Dataset[float64], error) {
	return OpenFile[float64](path, runio.Float64Codec{})
}

// WriteInt64File writes xs to a run file at path.
func WriteInt64File(path string, xs []int64) error {
	return WriteFile[int64](path, runio.Int64Codec{}, xs)
}

// WriteFloat64File writes xs to a run file at path.
func WriteFloat64File(path string, xs []float64) error {
	return WriteFile[float64](path, runio.Float64Codec{}, xs)
}

// WriteInt64FileFunc streams n generated int64 keys to a run file without
// materializing them; gen(i) returns the i-th key.
func WriteInt64FileFunc(path string, n int64, gen func(i int64) int64) error {
	return WriteFileFunc[int64](path, runio.Int64Codec{}, n, gen)
}

// EquiDepth is an equi-depth histogram; see histogram.EquiDepth.
type EquiDepth[T cmp.Ordered] = histogram.EquiDepth[T]

// BuildHistogram derives a B-bucket equi-depth histogram from a summary —
// the query-optimizer selectivity application.
func BuildHistogram[T cmp.Ordered](s *Summary[T], buckets int) (*EquiDepth[T], error) {
	return histogram.Build(s, buckets)
}

// SortOptions configures Sort and ExternalSort; see extsort.Options.
type SortOptions = extsort.Options

// SortStats reports partition balance of an external sort; see
// extsort.Stats.
type SortStats[T cmp.Ordered] = extsort.Stats[T]

// Sort externally sorts the run file of T keys at inPath into outPath by
// quantile partitioning: one OPAQ pass (concurrent per opts.Config.Workers),
// one scatter pass, one per-bucket sort pass.
func Sort[T cmp.Ordered](inPath, outPath string, codec Codec[T], opts SortOptions) (SortStats[T], error) {
	return extsort.Sort(inPath, outPath, codec, opts)
}

// ExternalSort is Sort specialised to int64 run files, kept as a thin
// wrapper over the generic path.
func ExternalSort(inPath, outPath string, opts SortOptions) (SortStats[int64], error) {
	return Sort[int64](inPath, outPath, runio.Int64Codec{}, opts)
}

// Generator is a deterministic workload key stream; see datagen.Generator.
type Generator = datagen.Generator

// NewUniformGenerator returns uniform int64 keys over [0, max).
func NewUniformGenerator(seed, max int64) Generator { return datagen.NewUniform(seed, max) }

// NewZipfGenerator returns Zipf-skewed keys with the paper's
// parameterisation (param 1 = uniform, 0 = maximal skew; the paper
// evaluates 0.86).
func NewZipfGenerator(seed int64, distinct int, param float64) (Generator, error) {
	return datagen.NewZipf(seed, distinct, param)
}

// SaveSummary serializes a summary to w, checksummed, so long-lived
// pipelines can checkpoint quantile state between ingests.
func SaveSummary[T cmp.Ordered](w io.Writer, s *Summary[T], codec Codec[T]) error {
	return core.SaveSummary(w, s, codec)
}

// LoadSummary restores a summary written by SaveSummary with the same
// codec, re-validating every structural invariant.
func LoadSummary[T cmp.Ordered](r io.Reader, codec Codec[T]) (*Summary[T], error) {
	return core.LoadSummary[T](r, codec)
}

// SaveSummaryInt64 is SaveSummary with the int64 codec.
func SaveSummaryInt64(w io.Writer, s *Summary[int64]) error {
	return SaveSummary(w, s, runio.Int64Codec{})
}

// LoadSummaryInt64 restores a summary written by SaveSummaryInt64,
// re-validating every structural invariant.
func LoadSummaryInt64(r io.Reader) (*Summary[int64], error) {
	return LoadSummary[int64](r, runio.Int64Codec{})
}

// SaveSummaryFloat64 is SaveSummary with the float64 codec.
func SaveSummaryFloat64(w io.Writer, s *Summary[float64]) error {
	return SaveSummary(w, s, runio.Float64Codec{})
}

// LoadSummaryFloat64 restores a summary written by SaveSummaryFloat64.
func LoadSummaryFloat64(r io.Reader) (*Summary[float64], error) {
	return LoadSummary[float64](r, runio.Float64Codec{})
}

// NumericKey is the constraint of ExactQuantileMultipass: any fixed-width
// numeric type (every type with a built-in Codec). The multipass baseline
// needs value arithmetic for its bisection fallback, so — unlike the
// purely comparison-based OPAQ surface — it cannot accept all of
// cmp.Ordered.
type NumericKey = multipass.Key

// ExactQuantileMultipass computes an exact quantile using the multi-pass
// narrowing strategy of the prior art the paper compares against ([GS90],
// [MP80]): exact answers under a memory budget, at the cost of
// ~log(n/memBudget) passes instead of OPAQ's one. It is generic over every
// codec-supported key type; int64 call sites infer T as before.
func ExactQuantileMultipass[T NumericKey](ds Dataset[T], phi float64, memBudget int, seed int64) (T, int, error) {
	res, err := multipass.FindExact(ds, phi, memBudget, seed)
	return res.Value, res.Passes, err
}

// StreamBuilder ingests elements one at a time and maintains a summary
// over everything seen — the push-based counterpart of Build; see
// core.StreamBuilder.
type StreamBuilder[T cmp.Ordered] = core.StreamBuilder[T]

// NewStreamBuilder returns a streaming summary builder; its Summary()
// matches Build over the same element sequence exactly.
func NewStreamBuilder[T cmp.Ordered](cfg Config) (*StreamBuilder[T], error) {
	return core.NewStreamBuilder[T](cfg)
}

// NewSelfSimilarGenerator returns keys under the 80–20 self-similar
// distribution with skew h in [0.5, 1); h = 0.8 is the classic 80–20 rule.
func NewSelfSimilarGenerator(seed, max int64, h float64) (Generator, error) {
	return datagen.NewSelfSimilar(seed, max, h)
}
