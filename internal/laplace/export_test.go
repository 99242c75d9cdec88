package laplace

import (
	"fmt"
	"math"
)

// PDF evaluates the Laplace density with scale lambda at x.
func PDF(x, lambda float64) float64 {
	return math.Exp(-math.Abs(x)/lambda) / (2 * lambda)
}

// Quantile is the inverse CDF for p in (0, 1).
func Quantile(p, lambda float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("laplace: quantile of p=%g", p))
	}
	if p < 0.5 {
		return lambda * math.Log(2*p)
	}
	return -lambda * math.Log(2*(1-p))
}
