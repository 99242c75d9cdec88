package dpbox

import (
	"io"

	"ulpdp/internal/vcd"
)

// TraceState is the DP-Box state visible to a tracer at the end of a
// clock cycle — the module's output-facing registers and wires.
type TraceState struct {
	Phase       Phase
	Ready       bool
	Out         int64
	Sensor      int64
	BudgetUnits int64
	Resampling  bool
	FromCache   bool
	// Degraded mirrors NoiseResult.Degraded: the resample watchdog
	// tripped and the output came from the certified clamp.
	Degraded bool
	// Healthy mirrors the online URNG battery verdict.
	Healthy bool
}

// Tracer observes the module cycle by cycle.
type Tracer interface {
	// Cycle is called once per clock with the end-of-cycle state.
	Cycle(cycle uint64, s TraceState)
}

// SetTracer attaches a tracer (nil detaches).
func (b *DPBox) SetTracer(t Tracer) { b.tracer = t }

// trace emits the current state to the attached tracer.
func (b *DPBox) trace() {
	if b.tracer == nil {
		return
	}
	b.tracer.Cycle(b.cycles, TraceState{
		Phase:       b.phase,
		Ready:       b.ready,
		Out:         b.out,
		Sensor:      b.sensor,
		BudgetUnits: b.ledger.units,
		Resampling:  b.resampling,
		FromCache:   b.fromCache,
		Degraded:    b.degraded,
		Healthy:     b.Healthy(),
	})
}

// VCDTracer streams DP-Box state into a VCD waveform readable by
// GTKWave and friends.
type VCDTracer struct {
	w      *vcd.Writer
	phase  *vcd.Signal
	ready  *vcd.Signal
	out    *vcd.Signal
	sensor *vcd.Signal
	budget *vcd.Signal
	resamp *vcd.Signal
	cache  *vcd.Signal
	degr   *vcd.Signal
	health *vcd.Signal
}

// NewVCDTracer builds a tracer writing a waveform to out.
func NewVCDTracer(out io.Writer) (*VCDTracer, error) {
	w := vcd.New(out, "dpbox")
	t := &VCDTracer{
		w:      w,
		phase:  w.Signal("phase", 2),
		ready:  w.Signal("ready", 1),
		out:    w.Signal("noised_out", 20),
		sensor: w.Signal("sensor", 20),
		budget: w.Signal("budget_units", 32),
		resamp: w.Signal("mode_resampling", 1),
		cache:  w.Signal("from_cache", 1),
		degr:   w.Signal("degraded", 1),
		health: w.Signal("urng_healthy", 1),
	}
	if err := w.Begin(); err != nil {
		return nil, err
	}
	return t, nil
}

// Cycle implements Tracer.
func (t *VCDTracer) Cycle(cycle uint64, s TraceState) {
	t.w.Tick(cycle)
	t.phase.Set(uint64(s.Phase))
	t.ready.Set(boolBit(s.Ready))
	t.out.Set(uint64(s.Out) & 0xFFFFF)
	t.sensor.Set(uint64(s.Sensor) & 0xFFFFF)
	t.budget.Set(uint64(s.BudgetUnits) & 0xFFFFFFFF)
	t.resamp.Set(boolBit(s.Resampling))
	t.cache.Set(boolBit(s.FromCache))
	t.degr.Set(boolBit(s.Degraded))
	t.health.Set(boolBit(s.Healthy))
}

// Close flushes the waveform.
func (t *VCDTracer) Close() error { return t.w.Close() }

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
