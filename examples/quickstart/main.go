// Quickstart: noise a single sensor reading with a certified local-DP
// guarantee, and see why the naive fixed-point implementation is not
// acceptable.
package main

import (
	"fmt"
	"log"

	"ulpdp"
)

func main() {
	// A body-temperature sensor: range [34, 42] °C, reported at
	// ε = 0.5 through a 17-bit URNG and a 12-bit noise word, with the
	// sensor grid at 1/32 °C.
	par := ulpdp.Params{
		Lo: 34, Hi: 42,
		Eps:   0.5,
		Bu:    17,
		By:    12,
		Delta: 8.0 / 256,
	}

	// First: prove the naive implementation leaks. The exact analyzer
	// enumerates every output and finds values only some inputs can
	// produce — infinite privacy loss.
	rep, err := ulpdp.CertifyBaseline(par)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive fixed-point mechanism: infinite loss = %v\n", rep.Infinite)

	// The thresholding guard bounds the worst-case loss at 2ε. The
	// threshold is computed in closed form and certified exactly.
	const mult = 2
	th, err := ulpdp.ThresholdingThreshold(par, mult)
	if err != nil {
		log.Fatal(err)
	}
	cert, err := ulpdp.CertifyThresholding(par, th)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("thresholding guard: threshold %d steps, exact worst-case loss %.4f <= %.4f nats\n",
		th, cert.MaxLoss, mult*par.Eps)

	// Noise some readings.
	mech, err := ulpdp.NewThresholding(par, mult, 42)
	if err != nil {
		log.Fatal(err)
	}
	for _, reading := range []float64{36.6, 38.2, 41.9} {
		r := mech.Noise(reading)
		fmt.Printf("true %.1f °C -> reported %+7.2f °C (clamped=%v)\n", reading, r.Value, r.Clamped)
	}

	// An aggregator averaging many users' noised readings still
	// recovers the population mean.
	const users = 2000
	var sum float64
	for i := 0; i < users; i++ {
		sum += mech.Noise(36.6).Value
	}
	fmt.Printf("mean of %d noised readings of 36.6 °C: %.2f °C\n", users, sum/users)

	// The telemetry plane: attach a registry to a cycle-level DP-Box
	// and the privacy odometer tracks cumulative ε spend live (a nil
	// plane costs nothing — see BenchmarkDPBoxObsDisabled).
	reg := ulpdp.NewObsRegistry()
	box, err := ulpdp.NewDPBox(ulpdp.DPBoxConfig{Obs: ulpdp.NewDPBoxMetrics(reg, 1)})
	if err != nil {
		log.Fatal(err)
	}
	if err := box.Initialize(4, 0); err != nil {
		log.Fatal(err)
	}
	if err := box.Configure(1, 0, 16); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := box.NoiseValue(8); err != nil {
			log.Fatal(err)
		}
	}
	odo := reg.Snapshot().Odometers["budget.odometer"]
	fmt.Printf("privacy odometer: %d sixteenth-nat units spent in %d charges; ledger agrees: %d of 64 units left\n",
		odo.TotalUnits, odo.Charges, box.BudgetUnits())
}
