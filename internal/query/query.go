// Package query implements the statistical queries of the paper's
// utility evaluation (mean, median, variance, counting) and the
// mean-absolute-error harness behind Tables II-V: each dataset entry
// is noised independently, the query runs on the noised data, and the
// error against the true query output is averaged over repeated
// trials (the paper uses 500 repetitions per entry).
package query

import (
	"fmt"
	"math"
	"sort"

	"ulpdp/internal/core"
)

// Kind identifies a statistical query.
type Kind int

const (
	// Mean is the arithmetic mean.
	Mean Kind = iota
	// Median is the 50th percentile.
	Median
	// Variance is the population variance.
	Variance
	// Count counts entries above the dataset midpoint (a counting
	// query with sensitivity 1).
	Count
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Mean:
		return "mean"
	case Median:
		return "median"
	case Variance:
		return "variance"
	case Count:
		return "count"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Apply evaluates the query on xs. For Count, threshold is the
// predicate cut (entries > threshold are counted).
func Apply(k Kind, xs []float64, threshold float64) float64 {
	switch k {
	case Mean:
		return MeanOf(xs)
	case Median:
		return MedianOf(xs)
	case Variance:
		return VarianceOf(xs)
	case Count:
		return CountAbove(xs, threshold)
	}
	panic(fmt.Sprintf("query: unknown kind %d", int(k)))
}

// MeanOf returns the arithmetic mean (0 for empty input).
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MedianOf returns the median (0 for empty input). The input is not
// modified.
func MedianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// VarianceOf returns the population variance (0 for empty input).
func VarianceOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := MeanOf(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// CountAbove counts entries strictly above the threshold.
func CountAbove(xs []float64, threshold float64) float64 {
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n)
}

// Utility is the MAE summary of one (mechanism, query, dataset)
// cell: the format of Tables II-V.
type Utility struct {
	// MAE is the mean absolute error of the noised query output.
	MAE float64
	// StdMAE is the standard deviation of the absolute error.
	StdMAE float64
	// RelErr is MAE normalized to the full data range (the
	// percentage shown in the paper's tables).
	RelErr float64
	// Trials is the number of repetitions.
	Trials int
}

// String renders the cell like the paper: "3.2±1.3 (8.6%)".
func (u Utility) String() string {
	return fmt.Sprintf("%.3g±%.2g (%.2g%%)", u.MAE, u.StdMAE, u.RelErr*100)
}

// EvaluateMAE measures a mechanism's utility for one query over a
// dataset: trials independent noisy releases of the full dataset,
// query applied to each, absolute error against the true output. For
// Count the predicate threshold is the dataset midpoint. rangeLen
// normalizes RelErr (pass Hi-Lo); for Variance and Count the paper
// normalizes to the query output scale instead, so rangeLen should
// be the true output magnitude there — NormalizeFor handles this.
func EvaluateMAE(mech core.Mechanism, k Kind, data []float64, trials int, rangeLen float64) Utility {
	if trials < 1 {
		panic("query: at least one trial required")
	}
	mid := midpoint(data)
	truth := Apply(k, data, mid)
	noised := make([]float64, len(data))
	errs := make([]float64, trials)
	for t := 0; t < trials; t++ {
		for i, x := range data {
			noised[i] = mech.Noise(x).Value
		}
		errs[t] = math.Abs(Apply(k, noised, mid) - truth)
	}
	var mean float64
	for _, e := range errs {
		mean += e
	}
	mean /= float64(trials)
	var sd float64
	for _, e := range errs {
		d := e - mean
		sd += d * d
	}
	sd = math.Sqrt(sd / float64(trials))
	u := Utility{MAE: mean, StdMAE: sd, Trials: trials}
	if rangeLen > 0 {
		u.RelErr = mean / rangeLen
	}
	return u
}

// NormalizeFor returns the scale the paper normalizes a query's MAE
// by: the data range for mean/median, the true variance for the
// variance query, and the dataset size for counting.
func NormalizeFor(k Kind, data []float64, rangeLen float64) float64 {
	switch k {
	case Variance:
		if v := VarianceOf(data); v > 0 {
			return v
		}
		return rangeLen
	case Count:
		return float64(len(data))
	default:
		return rangeLen
	}
}

func midpoint(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return (lo + hi) / 2
}
