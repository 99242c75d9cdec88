package main

import (
	"math"
	"sort"
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// quantile returns the nearest-rank q-quantile of xs (q in (0, 1]):
// the smallest sample with at least q·n samples at or below it. It
// sorts xs in place and returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// quartiles returns the first quartile, median and third quartile of
// xs by the same rule as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so spreads computed here match ones
// computed from the committed JSON with the standard library. It
// sorts xs in place.
func quartiles(xs []float64) (q1, med, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	at := func(k int) float64 {
		m := float64((n+1)*k) / 4
		j := int(m)
		j = max(1, min(j, n-1))
		delta := m - float64(j)
		return xs[j-1] + (xs[j]-xs[j-1])*delta
	}
	return at(1), at(2), at(3)
}

// median returns the middle value of xs (sorting it in place).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// msOf converts nanoseconds to milliseconds.
func msOf(ns int64) float64 { return float64(ns) / 1e6 }
