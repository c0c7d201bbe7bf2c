package experiments

import (
	"fmt"
	"math"

	"opaq/internal/baseline"
	"opaq/internal/core"
	"opaq/internal/datagen"
	"opaq/internal/metrics"
)

// seqSeed fixes the dataset seed for the sequential experiments.
const seqSeed = 1997

// buildEnclosures runs OPAQ on xs and returns the dectile enclosures plus
// the oracle.
func buildEnclosures(xs []int64, cfg core.Config) ([]metrics.Enclosure[int64], *metrics.Oracle[int64], error) {
	sum, err := core.BuildFromSlice(xs, cfg)
	if err != nil {
		return nil, nil, err
	}
	bounds, err := sum.Quantiles(10)
	if err != nil {
		return nil, nil, err
	}
	encl := make([]metrics.Enclosure[int64], len(bounds))
	for i, b := range bounds {
		encl[i] = metrics.Enclosure[int64]{Phi: b.Phi, Lower: b.Lower, Upper: b.Upper}
	}
	return encl, metrics.NewOracle(xs), nil
}

// seqConfig mirrors the paper's sequential setup: the Table 7 note pins
// r·s = 3000 at s = 1000 ⇒ r = 3 runs, so RunLen = ⌈n/3⌉ rounded up to a
// multiple of s.
func seqConfig(n, s int) core.Config {
	m := (n + 2) / 3
	if rem := m % s; rem != 0 {
		m += s - rem
	}
	if m < s {
		m = s
	}
	return core.Config{RunLen: m, SampleSize: s}
}

// Table3 reproduces "The RER_A produced by OPAQ algorithm for different
// sample sizes for data sets of size 1 Million": dectiles × s ∈
// {250, 500, 1000} × {uniform, zipf}.
func Table3(scale int) (*Table, error) {
	n := scaleN(1_000_000, scale)
	t := &Table{
		ID:     "Table 3",
		Title:  fmt.Sprintf("RER_A by dectile and sample size (n=%d, uniform & Zipf)", n),
		Header: []string{"Dectile", "U s=250", "U s=500", "U s=1000", "Z s=250", "Z s=500", "Z s=1000"},
		Notes:  []string{"paper: ~0.33 at s=250, ~0.17 at s=500, ~0.09 at s=1000; halves as s doubles"},
	}
	sizes := []int{250, 500, 1000}
	cols := make(map[string][]float64) // dist/s -> per-dectile RER_A
	for _, dist := range []string{"uniform", "zipf"} {
		xs, err := datagen.PaperDataset(dist, n, seqSeed)
		if err != nil {
			return nil, err
		}
		for _, s := range sizes {
			encl, o, err := buildEnclosures(xs, seqConfig(n, s))
			if err != nil {
				return nil, err
			}
			rera, err := metrics.RERA(o, encl)
			if err != nil {
				return nil, err
			}
			cols[fmt.Sprintf("%s/%d", dist, s)] = rera
		}
	}
	for d := 0; d < 9; d++ {
		t.AddRow(fmt.Sprintf("%d0%%", d+1),
			fmtPct(cols["uniform/250"][d]), fmtPct(cols["uniform/500"][d]), fmtPct(cols["uniform/1000"][d]),
			fmtPct(cols["zipf/250"][d]), fmtPct(cols["zipf/500"][d]), fmtPct(cols["zipf/1000"][d]))
	}
	return t, nil
}

// Table4 reproduces "The RER_L and RER_N produced by OPAQ algorithm for
// different sample sizes" on the same sweep as Table 3.
func Table4(scale int) (*Table, error) {
	n := scaleN(1_000_000, scale)
	t := &Table{
		ID:     "Table 4",
		Title:  fmt.Sprintf("RER_L and RER_N by sample size (n=%d)", n),
		Header: []string{"Metric", "U s=250", "U s=500", "U s=1000", "Z s=250", "Z s=500", "Z s=1000"},
		Notes:  []string{"paper: RER_L 1.88/0.99/0.46 (uniform), RER_N 2.62/1.15/0.60; ceiling ≈ q/s·100"},
	}
	sizes := []int{250, 500, 1000}
	rerls := map[string]float64{}
	rerns := map[string]float64{}
	for _, dist := range []string{"uniform", "zipf"} {
		xs, err := datagen.PaperDataset(dist, n, seqSeed)
		if err != nil {
			return nil, err
		}
		for _, s := range sizes {
			encl, o, err := buildEnclosures(xs, seqConfig(n, s))
			if err != nil {
				return nil, err
			}
			key := fmt.Sprintf("%s/%d", dist, s)
			if rerls[key], err = metrics.RERL(o, encl); err != nil {
				return nil, err
			}
			if rerns[key], err = metrics.RERN(o, encl); err != nil {
				return nil, err
			}
		}
	}
	t.AddRow("RER_L",
		fmtPct(rerls["uniform/250"]), fmtPct(rerls["uniform/500"]), fmtPct(rerls["uniform/1000"]),
		fmtPct(rerls["zipf/250"]), fmtPct(rerls["zipf/500"]), fmtPct(rerls["zipf/1000"]))
	t.AddRow("RER_N",
		fmtPct(rerns["uniform/250"]), fmtPct(rerns["uniform/500"]), fmtPct(rerns["uniform/1000"]),
		fmtPct(rerns["zipf/250"]), fmtPct(rerns["zipf/500"]), fmtPct(rerns["zipf/1000"]))
	return t, nil
}

// Table5 reproduces "The RER_A produced by OPAQ algorithm for different
// data sets": dectiles × n ∈ {1M, 5M, 10M}, s = 1000.
func Table5(scale int) (*Table, error) {
	ns := []int{scaleN(1_000_000, scale), scaleN(5_000_000, scale), scaleN(10_000_000, scale)}
	t := &Table{
		ID:     "Table 5",
		Title:  fmt.Sprintf("RER_A by dectile and data size (s=1000; n=%d/%d/%d)", ns[0], ns[1], ns[2]),
		Header: []string{"Dectile", "U 1M", "U 5M", "U 10M", "Z 1M", "Z 5M", "Z 10M"},
		Notes:  []string{"paper: ~0.07–0.10 across all sizes and both distributions (size-independent)"},
	}
	cols := map[string][]float64{}
	for _, dist := range []string{"uniform", "zipf"} {
		for i, n := range ns {
			xs, err := datagen.PaperDataset(dist, n, seqSeed+int64(i))
			if err != nil {
				return nil, err
			}
			encl, o, err := buildEnclosures(xs, seqConfig(n, 1000))
			if err != nil {
				return nil, err
			}
			rera, err := metrics.RERA(o, encl)
			if err != nil {
				return nil, err
			}
			cols[fmt.Sprintf("%s/%d", dist, i)] = rera
		}
	}
	for d := 0; d < 9; d++ {
		t.AddRow(fmt.Sprintf("%d0%%", d+1),
			fmtPct(cols["uniform/0"][d]), fmtPct(cols["uniform/1"][d]), fmtPct(cols["uniform/2"][d]),
			fmtPct(cols["zipf/0"][d]), fmtPct(cols["zipf/1"][d]), fmtPct(cols["zipf/2"][d]))
	}
	return t, nil
}

// Table6 reproduces "The RER_L and RER_N produced by OPAQ algorithm for
// different data sets" on the Table 5 sweep.
func Table6(scale int) (*Table, error) {
	ns := []int{scaleN(1_000_000, scale), scaleN(5_000_000, scale), scaleN(10_000_000, scale)}
	t := &Table{
		ID:     "Table 6",
		Title:  fmt.Sprintf("RER_L and RER_N by data size (s=1000; n=%d/%d/%d)", ns[0], ns[1], ns[2]),
		Header: []string{"Metric", "U 1M", "U 5M", "U 10M", "Z 1M", "Z 5M", "Z 10M"},
		Notes:  []string{"paper: RER_L ≈ 0.46–0.54, RER_N ≈ 0.53–0.60, flat in n and distribution"},
	}
	rerls := map[string]float64{}
	rerns := map[string]float64{}
	for _, dist := range []string{"uniform", "zipf"} {
		for i, n := range ns {
			xs, err := datagen.PaperDataset(dist, n, seqSeed+int64(i))
			if err != nil {
				return nil, err
			}
			encl, o, err := buildEnclosures(xs, seqConfig(n, 1000))
			if err != nil {
				return nil, err
			}
			key := fmt.Sprintf("%s/%d", dist, i)
			if rerls[key], err = metrics.RERL(o, encl); err != nil {
				return nil, err
			}
			if rerns[key], err = metrics.RERN(o, encl); err != nil {
				return nil, err
			}
		}
	}
	t.AddRow("RER_L",
		fmtPct(rerls["uniform/0"]), fmtPct(rerls["uniform/1"]), fmtPct(rerls["uniform/2"]),
		fmtPct(rerls["zipf/0"]), fmtPct(rerls["zipf/1"]), fmtPct(rerls["zipf/2"]))
	t.AddRow("RER_N",
		fmtPct(rerns["uniform/0"]), fmtPct(rerns["uniform/1"]), fmtPct(rerns["uniform/2"]),
		fmtPct(rerns["zipf/0"]), fmtPct(rerns["zipf/1"]), fmtPct(rerns["zipf/2"]))
	return t, nil
}

// Table7 reproduces "Comparisons with the other two algorithms": OPAQ vs
// the [AS95] adaptive-interval algorithm vs random sampling, all given the
// same memory (3000 element-equivalents — the paper's footnote pins OPAQ's
// r·s to 3000).
//
// OPAQ's RER_A is the enclosure-based measure; AS95 and random sampling
// produce point estimates, for which RER_A reduces to the rank distance
// between estimate and truth as a fraction of n (the [AS95] definition).
func Table7(scale int) (*Table, error) {
	n := scaleN(1_000_000, scale)
	t := &Table{
		ID:     "Table 7",
		Title:  fmt.Sprintf("RER_A: OPAQ vs AS95 vs random sampling at equal memory (n=%d, 3000 elems)", n),
		Header: []string{"Dectile", "U OPAQ", "U AS95", "U Rand", "Z OPAQ", "Z AS95", "Z Rand"},
		Notes: []string{
			"paper: all three land in 0.0–0.6; OPAQ comparable or better, and only OPAQ has a deterministic bound",
			"AS95 and random sampling are point estimators: their RER_A is |rank(est)−rank(true)|/n·100",
		},
	}
	cols := map[string][]float64{}
	for _, dist := range []string{"uniform", "zipf"} {
		xs, err := datagen.PaperDataset(dist, n, seqSeed)
		if err != nil {
			return nil, err
		}
		o := metrics.NewOracle(xs)

		// OPAQ with rs = 3000: s = 1000, r = 3.
		encl, _, err := buildEnclosures(xs, seqConfig(n, 1000))
		if err != nil {
			return nil, err
		}
		rera, err := metrics.RERA(o, encl)
		if err != nil {
			return nil, err
		}
		cols[dist+"/opaq"] = rera

		// AS95 with 1500 intervals = 3000 element-equivalents.
		as, err := baseline.NewAgrawalSwami(1500)
		if err != nil {
			return nil, err
		}
		for _, x := range xs {
			as.Add(x)
		}
		cols[dist+"/as95"], err = pointRERA(o, as)
		if err != nil {
			return nil, err
		}

		// Random sampling with 3000 reservoir slots.
		res, err := baseline.NewReservoir(3000, seqSeed)
		if err != nil {
			return nil, err
		}
		for _, x := range xs {
			res.Add(x)
		}
		cols[dist+"/rand"], err = pointRERA(o, res)
		if err != nil {
			return nil, err
		}
	}
	for d := 0; d < 9; d++ {
		t.AddRow(fmt.Sprintf("%d0%%", d+1),
			fmtPct(cols["uniform/opaq"][d]), fmtPct(cols["uniform/as95"][d]), fmtPct(cols["uniform/rand"][d]),
			fmtPct(cols["zipf/opaq"][d]), fmtPct(cols["zipf/as95"][d]), fmtPct(cols["zipf/rand"][d]))
	}
	return t, nil
}

// pointRERA computes the rank-distance RER_A of a point estimator per
// dectile.
func pointRERA(o *metrics.Oracle[int64], e baseline.Estimator) ([]float64, error) {
	out := make([]float64, 9)
	for d := 1; d <= 9; d++ {
		phi := float64(d) / 10
		est, err := e.Quantile(phi)
		if err != nil {
			return nil, err
		}
		truth := o.Quantile(phi)
		out[d-1] = math.Abs(float64(o.RankLE(est)-o.RankLE(truth))) / float64(o.N()) * 100
	}
	return out, nil
}

// AblationSplit is an extension experiment: under a fixed memory budget
// M = r·s + m, sweep the split between run length m and sample size s and
// measure both the deterministic bound and the observed worst dectile
// error. The paper fixes s and lets m follow from memory (Section 2.3);
// this table shows why larger s (more, smaller runs) is the right side of
// the trade until r·s dominates the budget.
func AblationSplit(scale int) (*Table, error) {
	n := scaleN(1_000_000, scale)
	t := &Table{
		ID:     "Extension: memory split",
		Title:  fmt.Sprintf("Fixed memory ≈ 96k elems, varying (m, s) split (n=%d, uniform)", n),
		Header: []string{"m", "s", "runs", "bound(elems)", "worst RER_A", "worst observed gap"},
		Notes: []string{
			"bound = ErrorBound() (Lemma 1 worst case); observed gap = max elements between a bound and the truth",
		},
	}
	xs, err := datagen.PaperDataset("uniform", n, seqSeed)
	if err != nil {
		return nil, err
	}
	o := metrics.NewOracle(xs)
	splits := []core.Config{
		{RunLen: 65536, SampleSize: 512},
		{RunLen: 32768, SampleSize: 1024},
		{RunLen: 16384, SampleSize: 2048},
		{RunLen: 8192, SampleSize: 4096},
	}
	for _, cfg := range splits {
		sum, err := core.BuildFromSlice(xs, cfg)
		if err != nil {
			return nil, err
		}
		bounds, err := sum.Quantiles(10)
		if err != nil {
			return nil, err
		}
		encl := make([]metrics.Enclosure[int64], len(bounds))
		worstGap := 0
		for i, b := range bounds {
			encl[i] = metrics.Enclosure[int64]{Phi: b.Phi, Lower: b.Lower, Upper: b.Upper}
			truth := o.Quantile(b.Phi)
			if g := o.RankLT(truth) - o.RankLE(b.Lower); g > worstGap {
				worstGap = g
			}
			if g := o.RankLT(b.Upper) - o.RankLE(truth); g > worstGap {
				worstGap = g
			}
		}
		rera, err := metrics.RERA(o, encl)
		if err != nil {
			return nil, err
		}
		worst := 0.0
		for _, v := range rera {
			if v > worst {
				worst = v
			}
		}
		t.AddRow(fmt.Sprintf("%d", cfg.RunLen),
			fmt.Sprintf("%d", cfg.SampleSize),
			fmt.Sprintf("%d", sum.Runs()),
			fmt.Sprintf("%d", sum.ErrorBound()),
			fmtPct(worst),
			fmt.Sprintf("%d", worstGap))
	}
	return t, nil
}
