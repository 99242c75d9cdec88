// Package attack implements the adversary of the paper's Section
// VI-D: an observer who requests the same sensor value repeatedly and
// averages the noised outputs — the maximum-likelihood estimate of
// the original value under zero-mean additive noise. Budget control
// defeats it: once the budget is spent, cached outputs add no new
// information and the estimate's error stops shrinking.
package attack

import (
	"fmt"
	"math"
)

// Requester answers one sensor data request (e.g. a DP-Box, a budget
// controller, or a bare mechanism).
type Requester func() (float64, error)

// Trace is the adversary's progress: the running estimate and its
// relative error after each request.
type Trace struct {
	// Requests[i] is the number of requests after step i (1-based).
	Requests []int
	// Estimates[i] is the running average after Requests[i] requests.
	Estimates []float64
	// RelErrs[i] is |estimate − truth| normalized to the data range.
	RelErrs []float64
}

// RunDedup issues n requests and records a cache-aware averaging
// attack's progress at each sample point. truth is the private value,
// rangeLen the sensor range used for normalization; samplePoints
// selects which request counts to record (nil = every request).
// Responses identical to the previous one are treated as cache
// replays and excluded from the average (they still count toward the
// request axis). Against a budget-with-caching defense this is the
// strongest averaging strategy — and its error still floors at the
// budget-limited sample count, which is the guarantee the paper's
// Fig. 13 demonstrates.
func RunDedup(req Requester, n int, truth, rangeLen float64, samplePoints []int) (Trace, error) {
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
	var used int
	var prev float64
	havePrev := false
	for i := 1; i <= n; i++ {
		v, err := req()
		if err != nil {
			return Trace{}, fmt.Errorf("attack: request %d: %w", i, err)
		}
		if !havePrev || v != prev {
			sum += v
			used++
		}
		prev, havePrev = v, true
		if samplePoints == nil || record[i] {
			est := sum / float64(used)
			tr.Requests = append(tr.Requests, i)
			tr.Estimates = append(tr.Estimates, est)
			tr.RelErrs = append(tr.RelErrs, math.Abs(est-truth)/rangeLen)
		}
	}
	return tr, nil
}
