// Package dataset regenerates the seven UCI sensor/IoT datasets of
// the paper's Table I as synthetic equivalents. The module is
// offline, so the real UCI archives are unavailable; each generator
// is a parametric distribution matched to the published entry count,
// range, mean and standard deviation (several Table I cells are
// unreadable in the source scan; where so, the statistics of the real
// UCI dataset are used and noted on the generator). The utility
// experiments (Tables II-V, Figs. 11-15) depend only on these
// moments, the range length d and the dataset size — all preserved.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ulpdp/internal/urng"
)

// Shape selects the generator family.
type Shape int

const (
	// TruncNormal is a Gaussian truncated to [Min, Max].
	TruncNormal Shape = iota
	// SkewedLogNormal is a right-skewed lognormal shifted into range.
	SkewedLogNormal
	// CeilingMix is TruncNormal plus an atom at Max (sensors that
	// saturate, e.g. ultrasound rangefinders reporting "no echo").
	CeilingMix
	// Bimodal is a two-component Gaussian mixture (activity signals
	// alternating between rest and motion).
	Bimodal
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case TruncNormal:
		return "trunc-normal"
	case SkewedLogNormal:
		return "skewed-lognormal"
	case CeilingMix:
		return "ceiling-mix"
	case Bimodal:
		return "bimodal"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// Meta describes one dataset: its Table I row and generator shape.
type Meta struct {
	// Name is the dataset's Table I label.
	Name string
	// Source notes what the generator substitutes for.
	Source string
	// Entries is the number of rows.
	Entries int
	// Min and Max bound the attribute (the sensor range [m, M]).
	Min, Max float64
	// Mean and Std are the target moments.
	Mean, Std float64
	// Shape selects the generator family.
	Shape Shape
	// CeilFrac is the saturation-atom mass for CeilingMix.
	CeilFrac float64
}

// Catalog returns the seven Table I datasets in the paper's order.
func Catalog() []Meta {
	return []Meta{
		{
			Name:    "Auto-MPG",
			Source:  "UCI Auto MPG: miles per gallon",
			Entries: 398, Min: 9, Max: 46.6, Mean: 23.5, Std: 7.8,
			Shape: SkewedLogNormal,
		},
		{
			Name:    "Robot Sensors",
			Source:  "UCI Wall-Following Robot Navigation: ultrasound range (m)",
			Entries: 5456, Min: 0, Max: 5.0, Mean: 1.9, Std: 1.4,
			Shape: CeilingMix, CeilFrac: 0.12,
		},
		{
			Name:    "Statlog (Heart)",
			Source:  "UCI Statlog Heart: resting blood pressure (mmHg)",
			Entries: 270, Min: 94, Max: 200, Mean: 131.3, Std: 17.9,
			Shape: TruncNormal,
		},
		{
			Name:    "Human Activity",
			Source:  "UCI HAR (smartphones): normalized body acceleration",
			Entries: 10299, Min: -1, Max: 1, Mean: -0.06, Std: 0.4,
			Shape: Bimodal,
		},
		{
			Name:    "Localization for Person",
			Source:  "UCI Localization Data for Person Activity: x coordinate (m)",
			Entries: 164860, Min: -2.54, Max: 6.34, Mean: 1.9, Std: 1.2,
			Shape: TruncNormal,
		},
		{
			Name:    "UJIIndoorLoc",
			Source:  "UCI UJIIndoorLoc: longitude (m, local frame)",
			Entries: 19937, Min: -7691.3, Max: -7300.9, Mean: -7464.4, Std: 123.4,
			Shape: TruncNormal,
		},
		{
			Name:    "Postural Transitions",
			Source:  "UCI Smartphone-Based HAPT: normalized acceleration",
			Entries: 10929, Min: -1.001, Max: 1.0, Mean: 0.015, Std: 0.32,
			Shape: TruncNormal,
		},
	}
}

// ByName returns the catalog entry with the given name.
func ByName(name string) (Meta, error) {
	for _, m := range Catalog() {
		if m.Name == name {
			return m, nil
		}
	}
	return Meta{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Validate reports whether the meta is generatable.
func (m Meta) Validate() error {
	if m.Entries < 1 {
		return fmt.Errorf("dataset %q: no entries", m.Name)
	}
	if !(m.Max > m.Min) {
		return fmt.Errorf("dataset %q: empty range", m.Name)
	}
	if m.Mean < m.Min || m.Mean > m.Max {
		return fmt.Errorf("dataset %q: mean outside range", m.Name)
	}
	if !(m.Std > 0) {
		return fmt.Errorf("dataset %q: non-positive std", m.Name)
	}
	if m.CeilFrac < 0 || m.CeilFrac > 0.5 {
		return fmt.Errorf("dataset %q: ceiling fraction %g out of [0, 0.5]", m.Name, m.CeilFrac)
	}
	return nil
}

// Range returns the attribute range length d = Max - Min.
func (m Meta) Range() float64 { return m.Max - m.Min }

// Generate produces the synthetic dataset deterministically from the
// seed. It panics on invalid metadata.
func (m Meta) Generate(seed uint64) []float64 {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	rng := urng.NewSplitMix64(seed ^ hashName(m.Name))
	comps := m.components()
	out := make([]float64, m.Entries)
	for i := range out {
		out[i] = m.sample(rng, &comps)
	}
	return out
}

// GenerateN produces n entries regardless of the catalog size — used
// by the dataset-size sweeps of Figs. 14 and 15.
func (m Meta) GenerateN(n int, seed uint64) []float64 {
	mm := m
	mm.Entries = n
	return mm.Generate(seed)
}

// normal is one mixture component's parent distribution: N(mu, sigma²)
// before truncation, or the log-space parameters of the lognormal.
type normal struct{ mu, sigma float64 }

// components solves each mixture component's parent parameters: the
// lognormal's for SkewedLogNormal, otherwise the truncated normals'
// (two for Bimodal). They depend only on the Meta, so Generate solves
// them once rather than once per value.
func (m Meta) components() [2]normal {
	fit := func(mean, std float64) normal { return truncNormalParams(mean, std, m.Min, m.Max) }
	switch m.Shape {
	case SkewedLogNormal:
		// Lognormal with moments matched to (Mean-Min, Std), then
		// shifted by Min and truncated.
		return [2]normal{lognormalParams(m.Mean-m.Min, m.Std)}
	case CeilingMix:
		// Bulk component: match the mixture's moments. The atom at
		// Max contributes both to the mean and (heavily) to the
		// variance, so the bulk runs at a reduced mean and std.
		f := m.CeilFrac
		bulkMean := (m.Mean - f*m.Max) / (1 - f)
		bulkVar := (m.Std*m.Std - f*(m.Max-m.Mean)*(m.Max-m.Mean) -
			(1-f)*(bulkMean-m.Mean)*(bulkMean-m.Mean)) / (1 - f)
		minStd := 0.02 * m.Range()
		bulkStd := minStd
		if bulkVar > minStd*minStd {
			bulkStd = math.Sqrt(bulkVar)
		}
		return [2]normal{fit(bulkMean, bulkStd)}
	case Bimodal:
		// Two modes at mean ± std, mixed to preserve the mean.
		return [2]normal{fit(m.Mean-m.Std*0.9, m.Std*0.45), fit(m.Mean+m.Std*0.9, m.Std*0.45)}
	default:
		return [2]normal{fit(m.Mean, m.Std)}
	}
}

func (m Meta) sample(rng *urng.SplitMix64, c *[2]normal) float64 {
	switch m.Shape {
	case SkewedLogNormal:
		for {
			v := m.Min + math.Exp(c[0].mu+c[0].sigma*rng.NormFloat64())
			if v >= m.Min && v <= m.Max {
				return v
			}
		}
	case CeilingMix:
		if rng.Float64() < m.CeilFrac {
			return m.Max
		}
		return c[0].truncated(rng, m.Min, m.Max)
	case Bimodal:
		if rng.Float64() < 0.5 {
			return c[0].truncated(rng, m.Min, m.Max)
		}
		return c[1].truncated(rng, m.Min, m.Max)
	default:
		return c[0].truncated(rng, m.Min, m.Max)
	}
}

// truncated draws from the parent normal restricted to [lo, hi].
func (n normal) truncated(rng *urng.SplitMix64, lo, hi float64) float64 {
	for i := 0; i < 1000; i++ {
		v := n.mu + n.sigma*rng.NormFloat64()
		if v >= lo && v <= hi {
			return v
		}
	}
	// Pathological truncation: fall back to clamping.
	v := n.mu + n.sigma*rng.NormFloat64()
	return math.Max(lo, math.Min(hi, v))
}

// truncNormalParams finds the parent normal whose [lo, hi]-truncation
// has approximately the target mean and std, by alternating a mean
// correction with a bisection on sigma. Truncation shrinks the sample
// variance and pulls the mean toward the interval centre; the parent
// compensates so the *post-truncation* moments hit the targets
// (UJIIndoorLoc's std is 32% of its range — uncompensated it would
// generate ~25% low).
func truncNormalParams(mean, std, lo, hi float64) normal {
	mu, sigma := mean, std
	for iter := 0; iter < 4; iter++ {
		// Bisection on sigma so the truncated std matches.
		loS, hiS := std, 6*std
		for i := 0; i < 40; i++ {
			mid := (loS + hiS) / 2
			_, s := truncMoments(mu, mid, lo, hi)
			if s < std {
				loS = mid
			} else {
				hiS = mid
			}
		}
		sigma = (loS + hiS) / 2
		m, _ := truncMoments(mu, sigma, lo, hi)
		mu += mean - m
	}
	return normal{mu, sigma}
}

// truncMoments returns the mean and std of N(mu, sigma²) truncated to
// [lo, hi].
func truncMoments(mu, sigma, lo, hi float64) (float64, float64) {
	a := (lo - mu) / sigma
	b := (hi - mu) / sigma
	z := stdCDF(b) - stdCDF(a)
	if z < 1e-12 {
		return (lo + hi) / 2, (hi - lo) / math.Sqrt(12)
	}
	pa, pb := stdPDF(a), stdPDF(b)
	mean := mu + sigma*(pa-pb)/z
	variance := sigma * sigma * (1 + (a*pa-b*pb)/z - ((pa-pb)/z)*((pa-pb)/z))
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}

func stdPDF(x float64) float64 { return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi) }

func stdCDF(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

// lognormalParams solves for the log-space (mu, sigma) of a lognormal
// with the given mean and standard deviation.
func lognormalParams(mean, std float64) normal {
	v := std * std / (mean * mean)
	sigma := math.Sqrt(math.Log(1 + v))
	return normal{math.Log(mean) - sigma*sigma/2, sigma}
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// LoadCSV reads a one-column CSV of float values: one value per line,
// '#' comments and a leading "value" header permitted — the format
// cmd/datagen writes and the format to use when substituting the real
// UCI datasets for the synthetic regenerators.
func LoadCSV(r io.Reader) ([]float64, error) {
	sc := bufio.NewScanner(r)
	var out []float64
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") || s == "value" {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dataset: no values in CSV")
	}
	return out, nil
}

// FileName returns the canonical CSV file name for a dataset (the
// name cmd/datagen writes and Load looks for).
func (m Meta) FileName() string {
	s := strings.ToLower(m.Name)
	s = strings.NewReplacer(" ", "_", "(", "", ")", "", "-", "_").Replace(s)
	return s + ".csv"
}

// Load reads the dataset's CSV from dir, clamping values into the
// Table I range (real UCI extracts may contain stragglers beyond the
// published bounds; the privacy parameters are defined by the range).
func (m Meta) Load(dir string) ([]float64, error) {
	f, err := os.Open(filepath.Join(dir, m.FileName()))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	xs, err := LoadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.Name, err)
	}
	for i, v := range xs {
		xs[i] = math.Max(m.Min, math.Min(m.Max, v))
	}
	return xs, nil
}

// Stats summarizes a generated sample.
type Stats struct {
	N                   int
	Min, Max, Mean, Std float64
}

// Describe computes summary statistics.
func Describe(xs []float64) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	s := Stats{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Mean += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean /= float64(len(xs))
	for _, x := range xs {
		d := x - s.Mean
		s.Std += d * d
	}
	s.Std = math.Sqrt(s.Std / float64(len(xs)))
	return s
}
