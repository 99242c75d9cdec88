package experiments

import (
	"io"
	"sync"

	"ulpdp/internal/core"
	"ulpdp/internal/dataset"
	"ulpdp/internal/query"
	"ulpdp/internal/svm"
	"ulpdp/internal/urng"
)

// TableIRow is one dataset's summary.
type TableIRow struct {
	Meta  dataset.Meta
	Stats dataset.Stats
}

// TableIResult reproduces Table I: the dataset inventory with the
// generated samples' actual statistics next to the targets.
type TableIResult struct {
	Rows []TableIRow
}

// TableI generates all seven datasets and summarizes them.
func TableI(cfg Config) (TableIResult, error) {
	if err := cfg.Validate(); err != nil {
		return TableIResult{}, err
	}
	var res TableIResult
	for _, m := range dataset.Catalog() {
		xs := m.Generate(cfg.Seed)
		res.Rows = append(res.Rows, TableIRow{Meta: m, Stats: dataset.Describe(xs)})
	}
	return res, nil
}

// Print renders the result.
func (r TableIResult) Print(w io.Writer) {
	fprintf(w, "Table I: datasets (synthetic regenerations; target vs generated)\n")
	fprintf(w, "%-24s %8s %20s %18s %18s\n", "dataset", "entries", "min/max", "mean (tgt/gen)", "std (tgt/gen)")
	for _, row := range r.Rows {
		m, s := row.Meta, row.Stats
		fprintf(w, "%-24s %8d %9s/%-10s %8s/%-9s %8s/%-9s\n",
			m.Name, s.N,
			fmtG(m.Min), fmtG(m.Max),
			fmtG(m.Mean), fmtG(s.Mean),
			fmtG(m.Std), fmtG(s.Std))
	}
}

// UtilityCell is one (dataset, setting) utility measurement.
type UtilityCell struct {
	Setting Setting
	Utility query.Utility
	// LDP reports whether the setting guarantees local DP, verified
	// by the exact analyzer for this dataset's parameters (not just
	// asserted).
	LDP bool
}

// UtilityRow is one dataset's row in a utility table.
type UtilityRow struct {
	Dataset string
	Cells   [4]UtilityCell // indexed by Setting
}

// UtilityTableResult reproduces one of Tables II-V.
type UtilityTableResult struct {
	Query query.Kind
	Eps   float64
	Rows  []UtilityRow
}

// TableII measures mean-query utility (ε = cfg.Eps).
func TableII(cfg Config) (UtilityTableResult, error) { return utilityTable(cfg, query.Mean) }

// TableIII measures median-query utility.
func TableIII(cfg Config) (UtilityTableResult, error) { return utilityTable(cfg, query.Median) }

// TableIV measures variance-query utility.
func TableIV(cfg Config) (UtilityTableResult, error) { return utilityTable(cfg, query.Variance) }

// TableV measures counting-query utility.
func TableV(cfg Config) (UtilityTableResult, error) { return utilityTable(cfg, query.Count) }

func utilityTable(cfg Config, k query.Kind) (UtilityTableResult, error) {
	if err := cfg.Validate(); err != nil {
		return UtilityTableResult{}, err
	}
	cat := dataset.Catalog()
	res := UtilityTableResult{Query: k, Eps: cfg.Eps, Rows: make([]UtilityRow, len(cat))}
	errs := make([]error, len(cat))
	var wg sync.WaitGroup
	// Datasets are independent (seeded per dataset and setting), so
	// the table fans out across cores; results land in fixed slots,
	// keeping the output deterministic.
	for di, m := range cat {
		wg.Add(1)
		go func(di int, m dataset.Meta) {
			defer wg.Done()
			data := loadData(cfg, m)
			par := paramsFor(m, cfg.Eps)
			ldp := certifyLDP(par, cfg.Mult)
			row := UtilityRow{Dataset: m.Name}
			for _, s := range Settings {
				mech, err := mechanismFor(s, par, cfg.Mult, cfg.Seed+uint64(di*7)+uint64(s))
				if err != nil {
					errs[di] = err
					return
				}
				norm := query.NormalizeFor(k, data, par.Range())
				row.Cells[s] = UtilityCell{
					Setting: s,
					Utility: query.EvaluateMAE(mech, k, data, cfg.Trials, norm),
					LDP:     ldp[s],
				}
			}
			res.Rows[di] = row
		}(di, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return UtilityTableResult{}, err
		}
	}
	return res, nil
}

// certifyLDP runs the exact analyzer once per dataset configuration
// and reports, per setting, whether local DP actually holds — the
// "LDP?" column. The analyzer verdicts are cached per parameter set.
func certifyLDP(par core.Params, mult float64) map[Setting]bool {
	ldpMu.Lock()
	defer ldpMu.Unlock()
	if v, ok := ldpCache[par]; ok {
		return v
	}
	an := core.CachedAnalyzer(par)
	out := map[Setting]bool{
		SettingIdeal:    true, // analytic guarantee
		SettingBaseline: !an.BaselineLoss().Infinite,
	}
	if th, err := core.GuardThreshold(par, core.GuardResampling, mult, 0); err == nil {
		out[SettingResampling] = an.ResamplingLoss(th).Bounded(mult * par.Eps)
	}
	if th, err := core.GuardThreshold(par, core.GuardThresholding, mult, 0); err == nil {
		out[SettingThresholding] = an.ThresholdingLoss(th).Bounded(mult * par.Eps)
	}
	ldpCache[par] = out
	return out
}

// Print renders the result.
func (r UtilityTableResult) Print(w io.Writer) {
	num := map[query.Kind]string{
		query.Mean: "II", query.Median: "III", query.Variance: "IV", query.Count: "V",
	}[r.Query]
	fprintf(w, "Table %s: MAE for %s query (ε=%g); cell = MAE±σ (rel%%) [LDP?]\n", num, r.Query, r.Eps)
	fprintf(w, "%-24s", "dataset")
	for _, s := range Settings {
		fprintf(w, " %-26s", s)
	}
	fprintf(w, "\n")
	// The paper prints relative error only for mean and count; the
	// median and variance rows show raw MAE (the variance query's
	// error is dominated by the additive-noise variance 2λ², so a
	// range-relative percentage is not meaningful).
	showRel := r.Query == query.Mean || r.Query == query.Count
	for _, row := range r.Rows {
		fprintf(w, "%-24s", row.Dataset)
		for _, s := range Settings {
			c := row.Cells[s]
			flag := "N"
			if c.LDP {
				flag = "Y"
			}
			cell := c.Utility.String()
			if !showRel {
				cell = fmtG(c.Utility.MAE) + "±" + fmtG(c.Utility.StdMAE)
			}
			fprintf(w, " %-22s [%s]", cell, flag)
		}
		fprintf(w, "\n")
	}
}

// TableVIResult reproduces Table VI: SVM classification accuracy
// versus training-set size and privacy parameter.
type TableVIResult struct {
	Sizes []int
	Eps   []float64 // 0 sentinel = no DP
	// Cells is indexed [size][eps].
	Cells [][]float64
}

// TableVI trains SVMs on noised synthetic halfspace data.
func TableVI(cfg Config) (TableVIResult, error) {
	if err := cfg.Validate(); err != nil {
		return TableVIResult{}, err
	}
	sizes := []int{1000, 2000, 3000, 4000, 5000}
	reps := 5
	if cfg.Trials < 10 { // quick mode
		sizes = []int{300, 1000, 2000}
		reps = 2
	}
	epsList := []float64{0.5, 1, 2, 0}
	const dim = 16
	const testN = 2000

	maxSize := sizes[len(sizes)-1]
	res := TableVIResult{Sizes: sizes, Eps: epsList, Cells: make([][]float64, len(sizes))}
	for si := range res.Cells {
		res.Cells[si] = make([]float64, len(epsList))
	}
	// Paired design: per repetition one halfspace, one point stream
	// and one noise realization; size cells use nested prefixes of
	// the same noised data against a fixed test set, so the
	// more-data-helps trend is not drowned by draw-to-draw variance.
	// Cells take the median across repetitions.
	cellAccs := make([][][]float64, len(sizes))
	for si := range cellAccs {
		cellAccs[si] = make([][]float64, len(epsList))
	}
	for r := 0; r < reps; r++ {
		all := svm.GenerateHalfspace(maxSize+testN, dim, 0.15, cfg.Seed+uint64(r)*1009)
		train := svm.Dataset{X: all.X[:maxSize], Y: all.Y[:maxSize]}
		test := svm.Dataset{X: all.X[maxSize:], Y: all.Y[maxSize:]}
		for ei, eps := range epsList {
			data := train
			if eps != 0 {
				par := core.Params{Lo: -1, Hi: 1, Eps: eps, Bu: rngBu, By: rngBy, Delta: 2.0 / 256}
				th, err := core.GuardThreshold(par, core.GuardThresholding, cfg.Mult, 0)
				if err != nil {
					return TableVIResult{}, err
				}
				src := urng.NewTaus88(cfg.Seed + uint64(ei*10+r))
				mech, err := core.NewThresholding(par, th, fastLog, src)
				if err != nil {
					return TableVIResult{}, err
				}
				// One mechanism shared across columns: the noise stream
				// lives in src, so this draws the same sequence the
				// per-column construction used to.
				data = svm.NoiseFeatures(train, func(int) core.Mechanism { return mech })
			}
			for si, n := range sizes {
				sub := svm.Dataset{X: data.X[:n], Y: data.Y[:n]}
				model := svm.TrainLSSVM(sub, 1e-3)
				cellAccs[si][ei] = append(cellAccs[si][ei], svm.Accuracy(model, test))
			}
		}
	}
	for si := range cellAccs {
		for ei := range cellAccs[si] {
			res.Cells[si][ei] = query.MedianOf(cellAccs[si][ei])
		}
	}
	return res, nil
}

// Print renders the result.
func (r TableVIResult) Print(w io.Writer) {
	fprintf(w, "Table VI: SVM classification accuracy vs training size and ε\n")
	fprintf(w, "%10s", "size")
	for _, e := range r.Eps {
		if e == 0 {
			fprintf(w, " %8s", "No DP")
		} else {
			fprintf(w, "    ε=%-4g", e)
		}
	}
	fprintf(w, "\n")
	for si, n := range r.Sizes {
		fprintf(w, "%10d", n)
		for ei := range r.Eps {
			fprintf(w, " %7.1f%%", 100*r.Cells[si][ei])
		}
		fprintf(w, "\n")
	}
}
