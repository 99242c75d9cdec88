package noisedist_test

// The analyzer imports this package through laplace.Dist, so tests
// that feed a family's PMF to core live in the external test package.

import (
	"testing"

	"ulpdp/internal/core"
	"ulpdp/internal/noisedist"
)

// TestNaiveMechanismLeaksForEveryFamily runs the exact analyzer over
// each family's PMF: the unguarded mechanism has infinite loss, and
// an exact-search threshold restores a certified bound.
func TestNaiveMechanismLeaksForEveryFamily(t *testing.T) {
	geo := noisedist.Geometry{Bu: 14, By: 12, Delta: 0.25}
	par := core.Params{Lo: 0, Hi: 8, Eps: 0.5, Bu: geo.Bu, By: geo.By, Delta: geo.Delta}
	for _, fam := range []noisedist.Family{
		noisedist.Laplace{Lambda: 16},
		noisedist.Gaussian{Sigma: 12},
		noisedist.Staircase{Eps: 0.5, D: 8, Gamma: noisedist.OptimalGamma(0.5)},
	} {
		t.Run(fam.Name(), func(t *testing.T) {
			d, err := noisedist.NewDist(fam, geo)
			if err != nil {
				t.Fatal(err)
			}
			pmf, maxK := d.PMF()
			an := core.NewAnalyzerFromPMF(par, pmf, maxK)
			if rep := an.BaselineLoss(); !rep.Infinite {
				t.Fatalf("naive %s loss should be infinite, got %g", fam.Name(), rep.MaxLoss)
			}
			// Exact-search a certified thresholding guard at 2ε.
			target := 2 * par.Eps
			var best int64 = -1
			for step := maxK; step >= 1; step-- {
				if rep := an.ThresholdingLoss(step); rep.Bounded(target) {
					best = step
					break
				}
			}
			if best < 1 {
				t.Fatalf("%s: no certified threshold found", fam.Name())
			}
			if rep := an.ThresholdingLoss(best); !rep.Bounded(target) {
				t.Fatalf("%s: threshold %d not certified", fam.Name(), best)
			}
		})
	}
}
