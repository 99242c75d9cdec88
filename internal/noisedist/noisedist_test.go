package noisedist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ulpdp/internal/urng"
)

var geo = Geometry{Bu: 14, By: 12, Delta: 0.25}

func families() []Family {
	return []Family{
		Laplace{Lambda: 16},
		Gaussian{Sigma: 12},
		Staircase{Eps: 0.5, D: 8, Gamma: OptimalGamma(0.5)},
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{Bu: 1, By: 12, Delta: 1},
		{Bu: 31, By: 12, Delta: 1},
		{Bu: 14, By: 1, Delta: 1},
		{Bu: 14, By: 12, Delta: 0},
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Errorf("geometry %d should be invalid", i)
		}
	}
	if geo.Validate() != nil {
		t.Error("valid geometry rejected")
	}
}

func TestQuantileSurvivalRoundTrip(t *testing.T) {
	for _, fam := range families() {
		fam := fam
		t.Run(fam.Name(), func(t *testing.T) {
			prop := func(raw uint16) bool {
				u := (float64(raw) + 1) / 65537
				x := fam.Quantile(u)
				return math.Abs(fam.Survival(x)-u) < 1e-6
			}
			if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestQuantileMonotoneNonIncreasing(t *testing.T) {
	for _, fam := range families() {
		prev := math.Inf(1)
		for u := 0.001; u <= 1; u += 0.001 {
			q := fam.Quantile(u)
			if q > prev+1e-9 {
				t.Fatalf("%s: quantile not non-increasing at u=%g", fam.Name(), u)
			}
			prev = q
		}
		if q := fam.Quantile(1); q != 0 {
			t.Errorf("%s: Quantile(1) = %g, want 0", fam.Name(), q)
		}
	}
}

func TestDensityIntegratesToOne(t *testing.T) {
	for _, fam := range families() {
		var integral float64
		const h = 0.01
		for x := -400.0; x <= 400; x += h {
			integral += fam.Density(x) * h
		}
		if math.Abs(integral-1) > 1e-2 {
			t.Errorf("%s: density integrates to %g", fam.Name(), integral)
		}
	}
}

func TestSurvivalMatchesDensityIntegral(t *testing.T) {
	for _, fam := range families() {
		for _, x := range []float64{0.5, 2, 8, 20, 50} {
			var integral float64
			const h = 0.005
			for v := x; v <= 500; v += h {
				integral += 2 * fam.Density(v) * h
			}
			if got := fam.Survival(x); math.Abs(got-integral) > 2e-3 {
				t.Errorf("%s: survival(%g) = %g, integral %g", fam.Name(), x, got, integral)
			}
		}
	}
}

func TestTotalMassIsOne(t *testing.T) {
	for _, fam := range families() {
		d, err := NewDist(fam, geo)
		if err != nil {
			t.Fatal(err)
		}
		if m := d.TotalMass(); math.Abs(m-1) > 1e-12 {
			t.Errorf("%s: total mass %.15f", fam.Name(), m)
		}
	}
}

func TestSamplerMatchesDistExhaustive(t *testing.T) {
	small := Geometry{Bu: 11, By: 10, Delta: 0.5}
	for _, fam := range families() {
		fam := fam
		t.Run(fam.Name(), func(t *testing.T) {
			d, err := NewDist(fam, small)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSampler(d, urng.NewTaus88(1))
			counts := map[int64]float64{}
			for m := uint64(1); m <= 1<<small.Bu; m++ {
				counts[s.MagnitudeForDraw(m)]++
			}
			for k := int64(0); k <= small.KCap(); k++ {
				if got, want := counts[k], d.CountMag(k); got != want {
					t.Errorf("CountMag(%d): sampler %g vs closed form %g", k, got, want)
				}
			}
		})
	}
}

// TestEveryFamilyHasFinitePrecisionPathology is Section III-A4 made
// executable: Laplace, Gaussian and staircase all end up with bounded
// support and zero-probability tail holes on fixed-point hardware.
func TestEveryFamilyHasFinitePrecisionPathology(t *testing.T) {
	for _, fam := range families() {
		d, err := NewDist(fam, geo)
		if err != nil {
			t.Fatal(err)
		}
		maxK := d.MaxK()
		if maxK <= 0 {
			t.Fatalf("%s: degenerate support", fam.Name())
		}
		// Bounded: the ideal distribution still has mass beyond the
		// largest representable output.
		beyond := fam.Survival((float64(maxK) + 1) * geo.Delta)
		if beyond <= 0 {
			t.Errorf("%s: ideal tail vanished before the hardware bound", fam.Name())
		}
		if _, ok := d.FirstZeroHole(); !ok {
			t.Errorf("%s: expected tail holes", fam.Name())
		}
	}
}

func TestStaircaseValidate(t *testing.T) {
	bad := []Staircase{
		{Eps: 0, D: 1, Gamma: 0.5},
		{Eps: 1, D: 0, Gamma: 0.5},
		{Eps: 1, D: 1, Gamma: 0},
		{Eps: 1, D: 1, Gamma: 1},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("staircase %d should be invalid", i)
		}
	}
	if (Staircase{Eps: 1, D: 1, Gamma: 0.5}).Validate() != nil {
		t.Error("valid staircase rejected")
	}
	if g := OptimalGamma(1); g <= 0 || g >= 0.5 {
		t.Errorf("optimal gamma %g", g)
	}
}

func TestStaircaseDPRatio(t *testing.T) {
	// The defining staircase property: density(x)/density(x+D) = e^ε
	// (exactly, everywhere) — the optimal ε-DP noise.
	s := Staircase{Eps: 0.5, D: 8, Gamma: OptimalGamma(0.5)}
	for _, x := range []float64{0, 1, 3.3, 7.9, 12, 25.5} {
		ratio := s.Density(x) / s.Density(x+s.D)
		if math.Abs(ratio-math.Exp(s.Eps)) > 1e-9 {
			t.Errorf("density ratio at %g = %g, want e^ε", x, ratio)
		}
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	for _, fam := range families() {
		for _, u := range []float64{0, -1, 1.5} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Quantile(%g) should panic", fam.Name(), u)
					}
				}()
				fam.Quantile(u)
			}()
		}
	}
}

func TestSampleKSigns(t *testing.T) {
	d, err := NewDist(Gaussian{Sigma: 12}, geo)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(d, urng.NewLFSR113(9))
	var pos, neg int
	for i := 0; i < 20000; i++ {
		if k := s.SampleK(); k > 0 {
			pos++
		} else if k < 0 {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatal("degenerate signs")
	}
	if r := float64(pos) / float64(pos+neg); r < 0.45 || r > 0.55 {
		t.Errorf("sign ratio %g", r)
	}
}

// shortQuantile is a Laplace family whose inverse CDF stops at half
// the magnitude its survival function reaches, so MaxK starts the
// walk below steps that still have draws: the top count then needs
// the floor of the step above it, as Prob takes it.
type shortQuantile struct{ Laplace }

func (s shortQuantile) Quantile(u float64) float64 { return s.Laplace.Quantile(u) / 2 }

// TestPMFMatchesProbBitwise pins the one-walk PMF to Prob(k), entry by
// entry and bit for bit, on the fleet geometry, the corners of the
// audit grid, a geometry whose support ends at the saturation step,
// the Gaussian and staircase families, and a family whose survival
// function reaches past its inverse CDF.
func TestPMFMatchesProbBitwise(t *testing.T) {
	type tc struct {
		name string
		fam  Family
		geo  Geometry
	}
	cases := []tc{
		{"fleet", Laplace{Lambda: 32}, Geometry{Bu: 12, By: 10, Delta: 1}},
		{"saturated", Laplace{Lambda: 32}, Geometry{Bu: 20, By: 6, Delta: 1}},
		{"gaussian", Gaussian{Sigma: 12}, geo},
		{"staircase", Staircase{Eps: 0.5, D: 8, Gamma: OptimalGamma(0.5)}, geo},
		{"short quantile", shortQuantile{Laplace{Lambda: 16}}, geo},
	}
	// Audit corners: range 10 over 32 and 256 steps.
	for _, bu := range []int{14, 20} {
		for _, by := range []int{10, 16} {
			for _, eps := range []float64{0.25, 2} {
				for _, steps := range []float64{32, 256} {
					cases = append(cases, tc{fmt.Sprintf("audit Bu%d By%d eps%g steps%g", bu, by, eps, steps),
						Laplace{Lambda: 10 / eps}, Geometry{Bu: bu, By: by, Delta: 10 / steps}})
				}
			}
		}
	}
	for _, c := range cases {
		d, err := NewDist(c.fam, c.geo)
		if err != nil {
			t.Fatal(err)
		}
		pmf, maxK := d.PMF()
		if maxK != d.MaxK() || int64(len(pmf)) != 2*maxK+1 {
			t.Fatalf("%s: PMF length %d for maxK %d (MaxK %d)", c.name, len(pmf), maxK, d.MaxK())
		}
		if c.name == "saturated" && maxK != c.geo.KCap() {
			t.Fatalf("saturated: maxK %d, want the saturation step %d", maxK, c.geo.KCap())
		}
		for i, p := range pmf {
			k := int64(i) - maxK
			if want := d.Prob(k); math.Float64bits(p) != math.Float64bits(want) {
				t.Fatalf("%s: pmf[k=%d] = %v, Prob = %v", c.name, k, p, want)
			}
		}
	}
}
