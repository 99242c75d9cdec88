package noisedist

import (
	"math"

	"ulpdp/internal/urng"
)

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
