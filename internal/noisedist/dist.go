package noisedist

import (
	"fmt"
	"math"

	"ulpdp/internal/urng"
)

// Geometry is the fixed-point RNG geometry shared by every family:
// a B_u-bit uniform magnitude draw, rounding to the Δ grid, and
// saturation at the signed B_y-bit output word.
type Geometry struct {
	Bu    int
	By    int
	Delta float64
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.Bu < 2 || g.Bu > 30 {
		return fmt.Errorf("noisedist: Bu %d out of range [2,30]", g.Bu)
	}
	if g.By < 2 || g.By > 30 {
		return fmt.Errorf("noisedist: By %d out of range [2,30]", g.By)
	}
	if !(g.Delta > 0) {
		return fmt.Errorf("noisedist: Delta %g must be positive", g.Delta)
	}
	return nil
}

// KCap returns the output-word magnitude cap.
func (g Geometry) KCap() int64 { return int64(1)<<(g.By-1) - 1 }

// Dist is the exact output distribution of a family's fixed-point
// inverse-CDF implementation. The derivation generalizes eq. 11: the
// draw m maps to magnitude step k iff
// m ∈ (2^B_u·S((k+½)Δ), 2^B_u·S((k−½)Δ)] with S the ideal survival
// function, so the integer count is the difference of floors.
type Dist struct {
	fam Family
	geo Geometry
}

// NewDist builds the exact distribution. The geometry is caller
// configuration, so an invalid one is a returned error, not a panic
// (DESIGN.md §6).
func NewDist(fam Family, geo Geometry) (Dist, error) {
	if err := geo.Validate(); err != nil {
		return Dist{}, err
	}
	return Dist{fam: fam, geo: geo}, nil
}

// Family returns the ideal family.
func (d Dist) Family() Family { return d.fam }

// Geometry returns the RNG geometry.
func (d Dist) Geometry() Geometry { return d.geo }

// floorAtLeast returns ⌊2^B_u · S((k−½)Δ)⌋ clipped to [0, 2^B_u]:
// the number of draws whose raw magnitude rounds to step k or higher.
func (d Dist) floorAtLeast(k int64) float64 {
	x := (float64(k) - 0.5) * d.geo.Delta
	if x <= 0 {
		return math.Ldexp(1, d.geo.Bu)
	}
	v := math.Ldexp(d.fam.Survival(x), d.geo.Bu)
	cap := math.Ldexp(1, d.geo.Bu)
	if v >= cap {
		return cap
	}
	return math.Floor(v)
}

// CountMag returns the exact number of draws mapping to magnitude
// step k (the saturation step absorbs the clipped tail).
func (d Dist) CountMag(k int64) float64 {
	if k < 0 || k > d.geo.KCap() {
		return 0
	}
	if k == d.geo.KCap() {
		return d.floorAtLeast(k)
	}
	return d.floorAtLeast(k) - d.floorAtLeast(k+1)
}

// ProbMag returns Pr[|n| = kΔ].
func (d Dist) ProbMag(k int64) float64 {
	return d.CountMag(k) * math.Ldexp(1, -d.geo.Bu)
}

// Prob returns Pr[n = kΔ] for signed k (sign bit splits non-zero
// magnitudes).
func (d Dist) Prob(k int64) float64 {
	mag := k
	if mag < 0 {
		mag = -mag
	}
	p := d.ProbMag(mag)
	if k == 0 {
		return p
	}
	return p / 2
}

// TailMag returns Pr[|n| >= kΔ] for k >= 1.
func (d Dist) TailMag(k int64) float64 {
	if k <= 0 {
		return 1
	}
	if k > d.geo.KCap() {
		return 0
	}
	return d.floorAtLeast(k) * math.Ldexp(1, -d.geo.Bu)
}

// MaxK returns the largest magnitude step with non-zero probability.
// The walk down past the zero-count rounding fringe starts one step
// above the magnitude of the draw m = 1, the largest the inverse CDF
// reaches, or at the saturation step if that is lower.
func (d Dist) MaxK() int64 {
	k := d.geo.KCap()
	top := math.Round(d.fam.Quantile(math.Ldexp(1, -d.geo.Bu))/d.geo.Delta) + 1
	if top < float64(k) {
		k = int64(top)
	}
	for k > 0 && d.CountMag(k) == 0 {
		k--
	}
	return k
}

// FirstZeroHole returns the smallest positive k below MaxK with zero
// probability — the finite-precision pathology Section III-A4 claims
// for every family.
func (d Dist) FirstZeroHole() (int64, bool) {
	maxK := d.MaxK()
	for k := int64(1); k < maxK; k++ {
		if d.CountMag(k) == 0 {
			return k, true
		}
	}
	return 0, false
}

// PMF materializes the signed PMF over k = -MaxK..MaxK; index i is
// k = i − MaxK.
func (d Dist) PMF() ([]float64, int64) {
	maxK := d.MaxK()
	pmf := make([]float64, 2*maxK+1)
	for k := -maxK; k <= maxK; k++ {
		pmf[k+maxK] = d.Prob(k)
	}
	return pmf, maxK
}

// TotalMass sums the signed PMF (exactly 1 by construction).
func (d Dist) TotalMass() float64 {
	var total float64
	for k := int64(0); k <= d.geo.KCap(); k++ {
		total += d.ProbMag(k)
	}
	return total
}

// Sampler draws from the family's fixed-point implementation, for
// empirical cross-checks against the exact Dist.
type Sampler struct {
	d   Dist
	src urng.Source
}

// NewSampler builds a sampler over the distribution.
func NewSampler(d Dist, src urng.Source) *Sampler {
	return &Sampler{d: d, src: src}
}

// MagnitudeForDraw maps one URNG draw to its magnitude step — the
// deterministic datapath.
func (s *Sampler) MagnitudeForDraw(m uint64) int64 {
	u := math.Ldexp(float64(m), -s.d.geo.Bu)
	k := int64(math.Round(s.d.fam.Quantile(u) / s.d.geo.Delta))
	if cap := s.d.geo.KCap(); k > cap {
		k = cap
	}
	if k < 0 {
		k = 0
	}
	return k
}

// SampleK draws one signed noise step.
func (s *Sampler) SampleK() int64 {
	m := urng.Bits(s.src, s.d.geo.Bu)
	k := s.MagnitudeForDraw(m)
	if s.src.Uint32()&1 == 1 {
		return -k
	}
	return k
}
