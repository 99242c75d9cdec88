package ulpdp_test

import (
	"fmt"

	"ulpdp"
)

// The core workflow: prove the naive fixed-point mechanism leaks,
// compute a certified guard, and noise a reading.
func Example() {
	par := ulpdp.Params{Lo: 0, Hi: 10, Eps: 0.5, Bu: 17, By: 12, Delta: 10.0 / 32}

	naive, _ := ulpdp.CertifyBaseline(par)
	fmt.Println("naive loss infinite:", naive.Infinite)

	th, _ := ulpdp.ThresholdingThreshold(par, 2)
	cert, _ := ulpdp.CertifyThresholding(par, th)
	fmt.Println("guarded loss bounded by 2ε:", cert.Bounded(2*par.Eps))

	// Output:
	// naive loss infinite: true
	// guarded loss bounded by 2ε: true
}

// Driving the DP-Box hardware simulator the way firmware would.
func ExampleNewDPBox() {
	box, _ := ulpdp.NewDPBox(ulpdp.DPBoxConfig{Bu: 17, By: 14, Mult: 2})
	// Boot: 50 nats of budget, no replenishment.
	if err := box.Initialize(50, 0); err != nil {
		panic(err)
	}
	// ε = 2^-1 = 0.5, sensor range 0..256 steps.
	if err := box.Configure(1, 0, 256); err != nil {
		panic(err)
	}
	r, _ := box.NoiseValue(128)
	fmt.Println("cycles:", r.Cycles)
	fmt.Println("charged something:", r.Charged > 0)
	// Output:
	// cycles: 2
	// charged something: true
}

// The exact fixed-point RNG distribution behind the analysis.
func ExampleNewFxPDist() {
	par := ulpdp.Params{Lo: 0, Hi: 10, Eps: 0.5, Bu: 17, By: 12, Delta: 10.0 / 32}
	d, _ := ulpdp.NewFxPDist(par)
	_, hasHoles := d.FirstZeroHole()
	fmt.Println("tail has zero-probability holes:", hasHoles)
	fmt.Printf("max representable noise: %.1f\n", par.FxP().MaxNoise())
	// Output:
	// tail has zero-probability holes: true
	// max representable noise: 235.7
}

// Randomized response: the categorical mode of Section VI-E.
func ExampleNewRandomizedResponse() {
	par := ulpdp.Params{Lo: 0, Hi: 1, Eps: 1, Bu: 17, By: 14, Delta: 1.0 / 64}
	rr, _ := ulpdp.NewRandomizedResponse(par, 7)
	v := rr.Noise(1).Value
	fmt.Println("binary output:", v == 0 || v == 1)
	fmt.Println("positive effective epsilon:", rr.RREpsilon() > 0)
	// Output:
	// binary output: true
	// positive effective epsilon: true
}

// Certifying a non-Laplace noise family (the Section III-A4
// generalization): the Gaussian mechanism has the same pathology.
func ExampleCertifyFamilyBaseline() {
	geo := ulpdp.NoiseGeometry{Bu: 14, By: 12, Delta: 0.25}
	dist, _ := ulpdp.NewFamilyDist(ulpdp.GaussianFamily{Sigma: 12}, geo)
	par := ulpdp.Params{Lo: 0, Hi: 8, Eps: 0.5, Bu: geo.Bu, By: geo.By, Delta: geo.Delta}
	rep, _ := ulpdp.CertifyFamilyBaseline(par, dist)
	fmt.Println("naive Gaussian mechanism leaks:", rep.Infinite)
	// Output:
	// naive Gaussian mechanism leaks: true
}
