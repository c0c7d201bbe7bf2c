package core

import (
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkStreamBuilderAdd measures a fresh builder taking four runs of
// uniform int64 keys at m = 65 536, one key per Add or 64 keys per
// AddBatch, and reports ns/key; B/op is per four runs. "warm" is the
// steady state, in which the previous op's flushes left whole runs idle
// in the pool for the partial runs to take; "cold" empties the pools
// before each op, outside the timer, so the first run's buffer grows from
// 64 keys to RunLen.
func BenchmarkStreamBuilderAdd(b *testing.B) {
	cfg := Config{RunLen: 1 << 16, SampleSize: 1 << 10}
	rng := rand.New(rand.NewSource(5))
	keys := make([]int64, 4*cfg.RunLen)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	feeds := []struct {
		name string
		feed func(*StreamBuilder[int64]) error
	}{
		{"Add", func(sb *StreamBuilder[int64]) error {
			for _, v := range keys {
				if err := sb.Add(v); err != nil {
					return err
				}
			}
			return nil
		}},
		{"AddBatch64", func(sb *StreamBuilder[int64]) error {
			for i := 0; i < len(keys); i += 64 {
				if err := sb.AddBatch(keys[i : i+64]); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, f := range feeds {
		for _, cold := range []bool{false, true} {
			name := f.name + "/warm"
			if cold {
				name = f.name + "/cold"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if cold {
						b.StopTimer()
						runtime.GC() // two collections empty every pool
						runtime.GC()
						b.StartTimer()
					}
					sb, err := NewStreamBuilder[int64](cfg)
					if err != nil {
						b.Fatal(err)
					}
					if err := f.feed(sb); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
			})
		}
	}
}
