package noisedist

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// pmfFingerprint pins the exact fixed-point Laplace PMF bit for bit:
// the FNV-1a hash of every CountMag(k), k = 0..KCap, and MaxK over
// pinnedLaplaceGeometries. Any change to the floor-count arithmetic
// or to the MaxK walk that moves a single count changes it.
const pmfFingerprint = 0xab18377e96eb1086

// laplaceGeometry is one pinned configuration: a Laplace scale on an
// RNG geometry.
type laplaceGeometry struct {
	lambda float64
	geo    Geometry
}

// sensorGeometry builds the Laplace geometry core.Params implies for a
// sensor range of length r at ε on a grid of step delta: λ = r/ε.
func sensorGeometry(bu, by int, r, eps, delta float64) laplaceGeometry {
	return laplaceGeometry{lambda: r / eps, geo: Geometry{Bu: bu, By: by, Delta: delta}}
}

// pinnedLaplaceGeometries lists the configurations the fingerprint
// covers: the 588-config audit factorial, the fleet and DP-Box
// geometries, and the experiments' geometries.
func pinnedLaplaceGeometries() []laplaceGeometry {
	var gs []laplaceGeometry
	// Audit factorial at range 10.
	for bu := 14; bu <= 20; bu++ {
		for by := 10; by <= 16; by++ {
			for _, steps := range []int{32, 64, 256} {
				for _, eps := range []float64{0.25, 0.5, 1, 2} {
					gs = append(gs, sensorGeometry(bu, by, 10, eps, 10/float64(steps)))
				}
			}
		}
	}
	// Fleet box (Bu 12, By 10, range 16, ε = 2^-1), the DP-Box default
	// and example shapes (range 256, unit grid).
	gs = append(gs,
		sensorGeometry(12, 10, 16, 0.5, 1),
		sensorGeometry(17, 12, 256, 0.5, 1),
		sensorGeometry(17, 14, 256, 0.5, 1),
	)
	// Fig. 4 and the URNG-width ablation around it.
	gs = append(gs, sensorGeometry(17, 12, 10, 0.5, 10.0/32))
	for bu := 6; bu <= 20; bu += 2 {
		gs = append(gs, sensorGeometry(bu, 12, 10, 0.5, 10.0/32))
	}
	// The utility suite (Bu 17, By 14, 256-step grid), Fig. 14's and
	// the float ablation's unit range, Table VI's [-1, 1] range, and
	// the family ablation's Laplace member.
	for _, eps := range []float64{0.25, 0.5, 1, 2} {
		gs = append(gs,
			sensorGeometry(17, 14, 1, eps, 1.0/256),
			sensorGeometry(17, 14, 1, eps, 1.0/64),
			sensorGeometry(17, 14, 2, eps, 2.0/256),
			sensorGeometry(14, 12, 8, eps, 0.25),
		)
	}
	return gs
}

func TestPMFFingerprint(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	gs := pinnedLaplaceGeometries()
	for _, g := range gs {
		d, err := NewDist(Laplace{Lambda: g.lambda}, g.geo)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k <= g.geo.KCap(); k++ {
			put(math.Float64bits(d.CountMag(k)))
		}
		put(uint64(d.MaxK()))
	}
	if got := h.Sum64(); got != pmfFingerprint {
		t.Fatalf("PMF fingerprint over %d geometries = %#x, want %#x", len(gs), got, uint64(pmfFingerprint))
	}
}
