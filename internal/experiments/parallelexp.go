package experiments

import (
	"fmt"
	"time"

	"opaq/internal/core"
	"opaq/internal/datagen"
	"opaq/internal/metrics"
	"opaq/internal/parallel"
	"opaq/internal/runio"
	"opaq/internal/simnet"
)

// parSeed fixes dataset seeds for the parallel experiments.
const parSeed = 2397

// parallelConfig mirrors the paper's parallel setup: 1024 samples per run,
// runs sized so each processor's shard splits into a handful of runs.
func parallelConfig(perProc, p int, algo parallel.MergeAlgo) parallel.Config {
	const s = 1024
	m := perProc / 4
	if m < s {
		m = s
	}
	if rem := m % s; rem != 0 {
		m += s - rem
	}
	return parallel.Config{
		Core:  core.Config{RunLen: m, SampleSize: s},
		Procs: p,
		Merge: algo,
		Model: simnet.DefaultCostModel(),
		Disk:  runio.DefaultDiskModel(),
	}
}

// genShards produces p equal shards of total elements, streamed per shard.
func genShards(total, p int, seed int64) [][]int64 {
	per := total / p
	shards := make([][]int64, p)
	for i := range shards {
		shards[i] = datagen.Generate(datagen.NewUniform(seed+int64(i), 1<<62), per)
	}
	return shards
}

// Figure3 reproduces "The execution time of the merge methods": bitonic vs
// sample merge of p sorted lists, for per-processor list sizes of 1–128 KB
// (128–16384 elements at 8 bytes each) and p ∈ {2, 4, 8}.
func Figure3(scale int) (*Table, error) {
	t := &Table{
		ID:     "Figure 3",
		Title:  "Global merge simulated time (milliseconds): bitonic vs sample merge",
		Header: []string{"KB/proc", "bit p=2", "smp p=2", "bit p=4", "smp p=4", "bit p=8", "smp p=8"},
		Notes: []string{
			"paper: bitonic wins at small sizes/processor counts, sample merge wins as either grows",
		},
	}
	for kb := 1; kb <= 128; kb <<= 1 {
		elems := kb * 1024 / 8
		cells := make([]string, 0, 6)
		for _, p := range []int{2, 4, 8} {
			for _, algo := range []parallel.MergeAlgo{parallel.BitonicMerge, parallel.SampleMerge} {
				d, err := parallel.GlobalMergeTime(elems, p, algo, simnet.DefaultCostModel(), parSeed)
				if err != nil {
					return nil, err
				}
				cells = append(cells, fmt.Sprintf("%.4f", float64(d.Microseconds())/1000))
			}
		}
		// Reorder: bit/smp per p are already adjacent in generation order.
		t.AddRow(fmt.Sprintf("%dK", kb), cells...)
	}
	return t, nil
}

// Table9 reproduces "The RER_A produced by the parallel algorithm for
// different data sets": dectiles, 8 processors, total n from 0.5M to 32M,
// uniform keys, 1024 samples per run.
func Table9(scale int) (*Table, error) {
	totals := []int{500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000, 16_000_000, 32_000_000}
	t := &Table{
		ID:     "Table 9",
		Title:  "Parallel RER_A by dectile and total data size (p=8, uniform)",
		Header: []string{"Dectile"},
		Notes:  []string{"paper: 0.07–0.10 across every size — size-independent accuracy"},
	}
	const p = 8
	cols := make([][]float64, 0, len(totals))
	for i, total := range totals {
		n := scaleN(total, scale)
		t.Header = append(t.Header, humanN(n))
		shards := genShards(n, p, parSeed+int64(i))
		res, err := parallel.Run(shards, parallelConfig(n/p, p, parallel.SampleMerge))
		if err != nil {
			return nil, err
		}
		bounds, err := res.Summary.Quantiles(10)
		if err != nil {
			return nil, err
		}
		var all []int64
		for _, sh := range shards {
			all = append(all, sh...)
		}
		o := metrics.NewOracle(all)
		encl := make([]metrics.Enclosure[int64], len(bounds))
		for j, b := range bounds {
			encl[j] = metrics.Enclosure[int64]{Phi: b.Phi, Lower: b.Lower, Upper: b.Upper}
		}
		rera, err := metrics.RERA(o, encl)
		if err != nil {
			return nil, err
		}
		cols = append(cols, rera)
	}
	for d := 0; d < 9; d++ {
		cells := make([]string, len(cols))
		for i := range cols {
			cells[i] = fmtPct(cols[i][d])
		}
		t.AddRow(fmt.Sprintf("%d0%%", d+1), cells...)
	}
	return t, nil
}

// Table10 reproduces "The RER_L and RER_N produced by the parallel
// algorithm for different data sets" on the Table 9 sweep.
func Table10(scale int) (*Table, error) {
	totals := []int{500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000, 16_000_000, 32_000_000}
	t := &Table{
		ID:     "Table 10",
		Title:  "Parallel RER_L and RER_N by total data size (p=8, uniform)",
		Header: []string{"Metric"},
		Notes:  []string{"paper: RER_L 0.51–0.62, RER_N 0.52–0.67, flat in n"},
	}
	const p = 8
	var rerls, rerns []string
	for i, total := range totals {
		n := scaleN(total, scale)
		t.Header = append(t.Header, humanN(n))
		shards := genShards(n, p, parSeed+int64(i))
		res, err := parallel.Run(shards, parallelConfig(n/p, p, parallel.SampleMerge))
		if err != nil {
			return nil, err
		}
		bounds, err := res.Summary.Quantiles(10)
		if err != nil {
			return nil, err
		}
		var all []int64
		for _, sh := range shards {
			all = append(all, sh...)
		}
		o := metrics.NewOracle(all)
		encl := make([]metrics.Enclosure[int64], len(bounds))
		for j, b := range bounds {
			encl[j] = metrics.Enclosure[int64]{Phi: b.Phi, Lower: b.Lower, Upper: b.Upper}
		}
		rl, err := metrics.RERL(o, encl)
		if err != nil {
			return nil, err
		}
		rn, err := metrics.RERN(o, encl)
		if err != nil {
			return nil, err
		}
		rerls = append(rerls, fmtPct(rl))
		rerns = append(rerns, fmtPct(rn))
	}
	t.AddRow("RER_L", rerls...)
	t.AddRow("RER_N", rerns...)
	return t, nil
}

// Table11 reproduces "The percentage of the I/O time to the total time for
// different number of elements per processor and different number of
// processors".
func Table11(scale int) (*Table, error) {
	perProcs := []int{500_000, 1_000_000, 2_000_000, 4_000_000}
	procs := []int{1, 2, 4, 8, 16}
	t := &Table{
		ID:     "Table 11",
		Title:  "I/O fraction of total simulated time",
		Header: []string{"Size/proc", "p=1", "p=2", "p=4", "p=8", "p=16"},
		Notes:  []string{"paper: 0.40–0.57, centred on ≈0.51, flat in both size and p"},
	}
	for _, pp := range perProcs {
		per := scaleN(pp, scale)
		cells := make([]string, 0, len(procs))
		for _, p := range procs {
			shards := genShards(per*p, p, parSeed)
			res, err := parallel.Run(shards, parallelConfig(per, p, parallel.SampleMerge))
			if err != nil {
				return nil, err
			}
			frac := float64(res.Phases.IO) / float64(res.Phases.Total())
			cells = append(cells, fmt.Sprintf("%.2f", frac))
		}
		t.AddRow(humanN(per), cells...)
	}
	return t, nil
}

// Table12 reproduces "The percentage of the execution time of the
// different phases" at 4M elements per processor.
func Table12(scale int) (*Table, error) {
	per := scaleN(4_000_000, scale)
	procs := []int{1, 2, 4, 8, 16}
	t := &Table{
		ID:     "Table 12",
		Title:  fmt.Sprintf("Phase fraction of total simulated time (%s per processor)", humanN(per)),
		Header: []string{"Phase", "p=1", "p=2", "p=4", "p=8", "p=16"},
		Notes: []string{
			"paper: I/O ≈ 0.51, sampling ≈ 0.46, local merge ≤ 0.01, global merge grows 0 → 0.015 with p",
		},
	}
	rows := map[string][]string{"I/O": nil, "Sampling": nil, "Local Merge": nil, "Global Merge": nil}
	for _, p := range procs {
		shards := genShards(per*p, p, parSeed)
		res, err := parallel.Run(shards, parallelConfig(per, p, parallel.SampleMerge))
		if err != nil {
			return nil, err
		}
		total := float64(res.Phases.Total())
		rows["I/O"] = append(rows["I/O"], fmt.Sprintf("%.3f", float64(res.Phases.IO)/total))
		rows["Sampling"] = append(rows["Sampling"], fmt.Sprintf("%.3f", float64(res.Phases.Sampling)/total))
		rows["Local Merge"] = append(rows["Local Merge"], fmt.Sprintf("%.3f", float64(res.Phases.LocalMerge)/total))
		rows["Global Merge"] = append(rows["Global Merge"], fmt.Sprintf("%.3f", float64(res.Phases.GlobalMerge)/total))
	}
	for _, name := range []string{"I/O", "Sampling", "Local Merge", "Global Merge"} {
		t.AddRow(name, rows[name]...)
	}
	return t, nil
}

// Figure4 reproduces the scale-up plot: total simulated time vs processor
// count at fixed per-processor data size (flat lines = perfect scale-up).
func Figure4(scale int) (*Table, error) {
	perProcs := []int{500_000, 1_000_000, 2_000_000, 4_000_000}
	procs := []int{2, 4, 8, 16}
	t := &Table{
		ID:     "Figure 4",
		Title:  "Scale-up: total simulated time (s) vs p at fixed per-processor size",
		Header: []string{"Size/proc", "p=2", "p=4", "p=8", "p=16"},
		Notes:  []string{"paper: near-flat lines — the only extra parallel cost is the (small) global merge"},
	}
	for _, pp := range perProcs {
		per := scaleN(pp, scale)
		cells := make([]string, 0, len(procs))
		for _, p := range procs {
			shards := genShards(per*p, p, parSeed)
			res, err := parallel.Run(shards, parallelConfig(per, p, parallel.SampleMerge))
			if err != nil {
				return nil, err
			}
			cells = append(cells, fmt.Sprintf("%.2f", res.TotalTime.Seconds()))
		}
		t.AddRow(humanN(per), cells...)
	}
	return t, nil
}

// Figure5 reproduces the size-up plot: total simulated time vs
// per-processor data size for each machine size (linear = perfect size-up).
func Figure5(scale int) (*Table, error) {
	perProcs := []int{500_000, 1_000_000, 2_000_000, 4_000_000}
	procs := []int{1, 2, 4, 8, 16}
	t := &Table{
		ID:     "Figure 5",
		Title:  "Size-up: total simulated time (s) vs per-processor size",
		Header: []string{"Procs"},
		Notes:  []string{"paper: time doubles as per-processor data doubles, for every machine size"},
	}
	for _, pp := range perProcs {
		t.Header = append(t.Header, humanN(scaleN(pp, scale)))
	}
	for _, p := range procs {
		cells := make([]string, 0, len(perProcs))
		for _, pp := range perProcs {
			per := scaleN(pp, scale)
			shards := genShards(per*p, p, parSeed)
			res, err := parallel.Run(shards, parallelConfig(per, p, parallel.SampleMerge))
			if err != nil {
				return nil, err
			}
			cells = append(cells, fmt.Sprintf("%.2f", res.TotalTime.Seconds()))
		}
		t.AddRow(fmt.Sprintf("p=%d", p), cells...)
	}
	return t, nil
}

// Figure6 reproduces the speedup plot: fixed total data (4M elements),
// speedup = T(1)/T(p) for p = 1…8.
func Figure6(scale int) (*Table, error) {
	total := scaleN(4_000_000, scale)
	t := &Table{
		ID:     "Figure 6",
		Title:  fmt.Sprintf("Speedup at fixed total size (%s elements)", humanN(total)),
		Header: []string{"Procs", "time (s)", "speedup"},
		Notes:  []string{"paper: near-linear speedup up to 8 processors"},
	}
	var t1 time.Duration
	for _, p := range []int{1, 2, 4, 8} {
		shards := genShards(total, p, parSeed)
		res, err := parallel.Run(shards, parallelConfig(total/p, p, parallel.SampleMerge))
		if err != nil {
			return nil, err
		}
		if p == 1 {
			t1 = res.TotalTime
		}
		t.AddRow(fmt.Sprintf("p=%d", p),
			fmt.Sprintf("%.2f", res.TotalTime.Seconds()),
			fmt.Sprintf("%.2f", float64(t1)/float64(res.TotalTime)))
	}
	return t, nil
}

// humanN renders element counts like the paper's axis labels.
func humanN(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1_000_000)
	case n >= 1_000:
		return fmt.Sprintf("%dK", n/1_000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// All returns every experiment keyed by its benchtab name.
func All() map[string]func(scale int) (*Table, error) {
	return map[string]func(scale int) (*Table, error){
		"table3":   Table3,
		"table4":   Table4,
		"table5":   Table5,
		"table6":   Table6,
		"table7":   Table7,
		"figure3":  Figure3,
		"table9":   Table9,
		"table10":  Table10,
		"table11":  Table11,
		"table12":  Table12,
		"figure4":  Figure4,
		"figure5":  Figure5,
		"figure6":  Figure6,
		"overlap":  FigureOverlap,
		"split":    AblationSplit,
		"workers":  WorkerSweep,
		"sharded":  ShardSweep,
		"coord":    ClusterSweep,
		"engine":   EngineSweep,
		"compact":  CompactionSweep,
		"ingest":   IngestSweep,
		"snapshot": SnapshotSweep,
	}
}

// Order is the paper order of experiment names.
var Order = []string{
	"table3", "table4", "table5", "table6", "table7",
	"figure3", "table9", "table10", "table11", "table12",
	"figure4", "figure5", "figure6", "overlap", "split", "workers", "sharded", "coord", "engine", "compact", "snapshot", "ingest",
}

// FigureOverlap is an extension experiment beyond the paper's evaluation:
// it quantifies the paper's Section 4 future-work claim ("Since a large
// fraction of the total execution time is spent in I/O, we can
// significantly reduce the total execution time by overlapping the I/O
// and the computation"). With I/O ≈ 50% of the total (Table 11), hiding
// it behind sampling should cut total time by nearly half.
func FigureOverlap(scale int) (*Table, error) {
	per := scaleN(2_000_000, scale)
	procs := []int{1, 2, 4, 8}
	t := &Table{
		ID:     "Extension: overlap",
		Title:  fmt.Sprintf("I/O–computation overlap (%s per processor): total simulated time (s)", humanN(per)),
		Header: []string{"Procs", "no overlap", "overlap", "reduction"},
		Notes: []string{
			"paper §4 (future work): overlapping I/O with computation should cut total time substantially",
		},
	}
	for _, p := range procs {
		shards := genShards(per*p, p, parSeed)
		base := parallelConfig(per, p, parallel.SampleMerge)
		resOff, err := parallel.Run(shards, base)
		if err != nil {
			return nil, err
		}
		on := base
		on.OverlapIO = true
		resOn, err := parallel.Run(shards, on)
		if err != nil {
			return nil, err
		}
		red := 1 - resOn.TotalTime.Seconds()/resOff.TotalTime.Seconds()
		t.AddRow(fmt.Sprintf("p=%d", p),
			fmt.Sprintf("%.2f", resOff.TotalTime.Seconds()),
			fmt.Sprintf("%.2f", resOn.TotalTime.Seconds()),
			fmt.Sprintf("%.0f%%", red*100))
	}
	return t, nil
}
