package fault

// Schedule returns a URNG fault that substitutes an adversarial word
// sequence for the real stream. After the schedule is exhausted the
// real stream passes through unperturbed.
func Schedule(words []uint32) URNGFault {
	seq := append([]uint32(nil), words...)
	i := 0
	return func(_ uint64, w uint32) uint32 {
		if i < len(seq) {
			w = seq[i]
			i++
		}
		return w
	}
}
