package runio

import "fmt"

// ShardRanges cuts n elements into shards contiguous [start, end) ranges
// in which every range but the last covers a whole number of runLen-element
// runs — the alignment under which a sharded build is bit-identical to a
// sequential one. Runs are distributed as evenly as possible; with fewer
// runs than shards, trailing ranges are empty.
func ShardRanges(n int64, shards, runLen int) ([][2]int64, error) {
	if shards < 1 {
		return nil, fmt.Errorf("runio: need ≥ 1 shard, got %d", shards)
	}
	if runLen < 1 {
		return nil, fmt.Errorf("runio: need positive run length, got %d", runLen)
	}
	totalRuns := (n + int64(runLen) - 1) / int64(runLen)
	out := make([][2]int64, shards)
	q, r := totalRuns/int64(shards), totalRuns%int64(shards)
	start := int64(0)
	for i := range out {
		nRuns := q
		if int64(i) < r {
			nRuns++
		}
		end := min(start+nRuns*int64(runLen), n)
		out[i] = [2]int64{start, end}
		start = end
	}
	return out, nil
}

// Section returns a Dataset over the element range [start, end) of the
// file — the substrate for sharding one run file across engine ranks
// without materializing it. Elements are fixed-width, so a section scan is
// one seek plus a sequential read of exactly the section's bytes.
func (d *FileDataset[T]) Section(start, end int64) (*FileSection[T], error) {
	if start < 0 || end < start || end > int64(d.hdr.count) {
		return nil, fmt.Errorf("runio: section [%d, %d) out of range for %d elements", start, end, d.hdr.count)
	}
	return &FileSection[T]{d: d, start: start, end: end}, nil
}

// Sections splits the file into run-aligned sections per ShardRanges.
func (d *FileDataset[T]) Sections(shards, runLen int) ([]*FileSection[T], error) {
	ranges, err := ShardRanges(int64(d.hdr.count), shards, runLen)
	if err != nil {
		return nil, err
	}
	out := make([]*FileSection[T], len(ranges))
	for i, r := range ranges {
		if out[i], err = d.Section(r[0], r[1]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FileSection is a Dataset over a contiguous element range of a run file.
type FileSection[T any] struct {
	d          *FileDataset[T]
	start, end int64
	stats      Stats
}

// Count implements Dataset.
func (s *FileSection[T]) Count() int64 { return s.end - s.start }

// Stats implements Dataset.
func (s *FileSection[T]) Stats() Stats { return s.stats }

// Runs implements Dataset: a fresh sequential scan of the section, read
// as FileDataset.Runs reads the whole file.
func (s *FileSection[T]) Runs(m int) (RunReader[T], error) {
	return s.d.scan(s.start, s.Count(), m, &s.stats)
}
