package urng

import "math"

// Unit draws u = m·2^-B ∈ (0, 1] exactly as the hardware URNG block
// presents it to the inverse-CDF stage.
func Unit(src Source, b int) float64 {
	return math.Ldexp(float64(Bits(src, b)), -b)
}
