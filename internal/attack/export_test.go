package attack

import (
	"fmt"
	"math"
)

// Run is RunDedup for a cache-blind adversary: every response joins
// the average. The tests compare RunDedup against it.
func Run(req Requester, n int, truth, rangeLen float64, samplePoints []int) (Trace, error) {
	if n < 1 {
		return Trace{}, fmt.Errorf("attack: need at least one request")
	}
	if rangeLen <= 0 {
		return Trace{}, fmt.Errorf("attack: non-positive range %g", rangeLen)
	}
	record := make(map[int]bool, len(samplePoints))
	for _, p := range samplePoints {
		record[p] = true
	}
	var tr Trace
	var sum float64
	for i := 1; i <= n; i++ {
		v, err := req()
		if err != nil {
			return Trace{}, fmt.Errorf("attack: request %d: %w", i, err)
		}
		sum += v
		if samplePoints == nil || record[i] {
			est := sum / float64(i)
			tr.Requests = append(tr.Requests, i)
			tr.Estimates = append(tr.Estimates, est)
			tr.RelErrs = append(tr.RelErrs, math.Abs(est-truth)/rangeLen)
		}
	}
	return tr, nil
}

// FinalError returns the last recorded relative error.
func (t Trace) FinalError() float64 {
	if len(t.RelErrs) == 0 {
		return math.NaN()
	}
	return t.RelErrs[len(t.RelErrs)-1]
}

// ErrorAt returns the relative error at the given request count.
func (t Trace) ErrorAt(requests int) (float64, bool) {
	for i, r := range t.Requests {
		if r == requests {
			return t.RelErrs[i], true
		}
	}
	return 0, false
}
