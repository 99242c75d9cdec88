package ulpdp

// One benchmark per table and figure of the paper, each regenerating
// the exhibit end to end at reduced (Quick) scale, plus
// micro-benchmarks of the hot paths. Run the exhibits at full scale
// with cmd/dpbench.

import (
	"io"
	"testing"

	"ulpdp/internal/core"
	"ulpdp/internal/experiments"
	"ulpdp/internal/fault"
	"ulpdp/internal/laplace"
	"ulpdp/internal/msp430"
	"ulpdp/internal/obs"
	"ulpdp/internal/urng"
)

func benchExhibit(b *testing.B, name string) {
	b.Helper()
	cfg := experiments.Quick()
	run := experiments.Registry[name]
	if run == nil {
		b.Fatalf("unknown exhibit %s", name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B)     { benchExhibit(b, "fig4") }
func BenchmarkFigure6(b *testing.B)     { benchExhibit(b, "fig6") }
func BenchmarkFigure7(b *testing.B)     { benchExhibit(b, "fig7") }
func BenchmarkFigure8(b *testing.B)     { benchExhibit(b, "fig8") }
func BenchmarkFigure11(b *testing.B)    { benchExhibit(b, "fig11") }
func BenchmarkFigure12(b *testing.B)    { benchExhibit(b, "fig12") }
func BenchmarkFigure13(b *testing.B)    { benchExhibit(b, "fig13") }
func BenchmarkFigure14(b *testing.B)    { benchExhibit(b, "fig14") }
func BenchmarkFigure15(b *testing.B)    { benchExhibit(b, "fig15") }
func BenchmarkTableI(b *testing.B)      { benchExhibit(b, "table1") }
func BenchmarkTableII(b *testing.B)     { benchExhibit(b, "table2") }
func BenchmarkTableIII(b *testing.B)    { benchExhibit(b, "table3") }
func BenchmarkTableIV(b *testing.B)     { benchExhibit(b, "table4") }
func BenchmarkTableV(b *testing.B)      { benchExhibit(b, "table5") }
func BenchmarkTableVI(b *testing.B)     { benchExhibit(b, "table6") }
func BenchmarkSectionIIID(b *testing.B) { benchExhibit(b, "sec3d") }
func BenchmarkSectionV(b *testing.B)    { benchExhibit(b, "sec5") }

// Ablations and extensions beyond the paper.
func BenchmarkAblateRNG(b *testing.B)      { benchExhibit(b, "ablate-rng") }
func BenchmarkAblateCharging(b *testing.B) { benchExhibit(b, "ablate-charging") }
func BenchmarkAblateLog(b *testing.B)      { benchExhibit(b, "ablate-log") }
func BenchmarkAblateFamily(b *testing.B)   { benchExhibit(b, "ablate-family") }
func BenchmarkAblateFloat(b *testing.B)    { benchExhibit(b, "ablate-float") }
func BenchmarkExtRappor(b *testing.B)      { benchExhibit(b, "ext-rappor") }

// --- micro-benchmarks of the hot paths ---

var benchPar = core.Params{Lo: 0, Hi: 10, Eps: 0.5, Bu: 17, By: 12, Delta: 10.0 / 32}

// BenchmarkNoiseIdeal measures one real-valued Laplace report.
func BenchmarkNoiseIdeal(b *testing.B) {
	m, err := core.NewIdealLaplace(benchPar, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Noise(5)
	}
}

// BenchmarkNoiseBaselineCordic measures the naive FxP report through
// the bit-accurate CORDIC datapath.
func BenchmarkNoiseBaselineCordic(b *testing.B) {
	m, err := core.NewBaseline(benchPar, nil, urng.NewTaus88(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Noise(5)
	}
}

// BenchmarkNoiseThresholding measures the certified thresholding
// guard per report.
func BenchmarkNoiseThresholding(b *testing.B) {
	th, err := core.ThresholdingThreshold(benchPar, 2)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewThresholding(benchPar, th, nil, urng.NewTaus88(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Noise(5)
	}
}

// BenchmarkNoiseResampling measures the resampling guard per report
// (worst case: extreme input).
func BenchmarkNoiseResampling(b *testing.B) {
	th, err := core.ResamplingThreshold(benchPar, 2)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewResampling(benchPar, th, nil, urng.NewTaus88(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Noise(10)
	}
}

// BenchmarkExactPMF measures the closed-form RNG distribution
// materialization the analyzer builds on.
func BenchmarkExactPMF(b *testing.B) {
	d := laplace.NewDist(benchPar.FxP())
	for i := 0; i < b.N; i++ {
		d.PMF()
	}
}

// benchParLarge is the wide-grid analyzer geometry: a 512-step
// sensor grid on a B_y = 16 output word, where the certification
// scan's asymptotics dominate construction.
var benchParLarge = core.Params{Lo: 0, Hi: 20, Eps: 0.5, Bu: 20, By: 16, Delta: 20.0 / 512}

// BenchmarkAnalyzerBuild measures analyzer construction alone — the
// full PMF materialization plus prefix sums. Certification is
// measured separately (BenchmarkAnalyzerCertify) so kernel changes
// are visible in isolation.
func BenchmarkAnalyzerBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.NewAnalyzer(benchPar)
	}
}

// BenchmarkAnalyzerCachedBuild measures the same construction through
// the process-wide analyzer cache (steady state: all hits).
func BenchmarkAnalyzerCachedBuild(b *testing.B) {
	core.ResetAnalyzerCache()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.CachedAnalyzer(benchPar)
	}
}

// BenchmarkAnalyzerCertify measures one exact certification of the
// thresholding mechanism, construction excluded.
func BenchmarkAnalyzerCertify(b *testing.B) {
	th, err := core.ThresholdingThreshold(benchPar, 2)
	if err != nil {
		b.Fatal(err)
	}
	an := core.NewAnalyzer(benchPar)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := an.ThresholdingLoss(th); rep.Infinite {
			b.Fatal("certification failed")
		}
	}
}

// BenchmarkAnalyzerCertifyLarge is BenchmarkAnalyzerCertify on the
// wide grid, where the sliding-window kernel's linear asymptotics
// (vs the legacy quadratic scan) carry the speedup.
func BenchmarkAnalyzerCertifyLarge(b *testing.B) {
	th, err := core.ThresholdingThreshold(benchParLarge, 2)
	if err != nil {
		b.Fatal(err)
	}
	an := core.NewAnalyzer(benchParLarge)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := an.ThresholdingLoss(th); rep.Infinite {
			b.Fatal("certification failed")
		}
	}
}

// BenchmarkAnalyzerProfile measures the full Fig. 8 loss profile
// derivation (one sliding-window sweep per call).
func BenchmarkAnalyzerProfile(b *testing.B) {
	th, err := core.ThresholdingThreshold(benchPar, 2)
	if err != nil {
		b.Fatal(err)
	}
	an := core.NewAnalyzer(benchPar)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.ThresholdingLossProfile(th)
	}
}

// BenchmarkThresholdClosedForm measures the eq. 13/15 calculators.
func BenchmarkThresholdClosedForm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.ThresholdingThreshold(benchPar, 2); err != nil {
			b.Fatal(err)
		}
		if _, err := core.ResamplingThreshold(benchPar, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPBoxTransaction measures one full hardware noising
// transaction through the cycle-level simulator.
func BenchmarkDPBoxTransaction(b *testing.B) {
	box, err := NewDPBox(DPBoxConfig{})
	if err != nil {
		b.Fatal(err)
	}
	if err := box.Initialize(1e12, 0); err != nil {
		b.Fatal(err)
	}
	if err := box.Configure(1, 0, 32); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := box.NoiseValue(16); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDPBoxFaultHooks is the fault-hook overhead guard shared by the
// two benchmarks below: identical transactions, with and without a
// (quiescent) fault plane installed. The hook contract is zero
// allocations and within ~2% on time/op; compare the two outputs.
func benchDPBoxFaultHooks(b *testing.B, withPlane bool) {
	cfg := DPBoxConfig{}
	if withPlane {
		cfg.Faults = fault.NewPlane()
	}
	box, err := NewDPBox(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := box.Initialize(1e12, 0); err != nil {
		b.Fatal(err)
	}
	if err := box.Configure(1, 0, 32); err != nil {
		b.Fatal(err)
	}
	if _, err := box.NoiseValue(16); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := box.NoiseValue(16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPBoxNoHooks is the no-fault-plane baseline.
func BenchmarkDPBoxNoHooks(b *testing.B) { benchDPBoxFaultHooks(b, false) }

// BenchmarkDPBoxIdleFaultPlane has an installed but empty fault
// plane: the wrappers are live, the injectors nil.
func BenchmarkDPBoxIdleFaultPlane(b *testing.B) { benchDPBoxFaultHooks(b, true) }

// benchDPBoxObs is the telemetry-hook overhead guard: identical
// transactions with the plane detached (nil Metrics — the production
// default) and attached. The disabled path's contract is zero
// allocations and within ~2% on time/op of BenchmarkDPBoxNoHooks.
func benchDPBoxObs(b *testing.B, enabled bool) {
	cfg := DPBoxConfig{}
	if enabled {
		cfg.Obs = NewDPBoxMetrics(NewObsRegistry(), 1)
	}
	box, err := NewDPBox(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := box.Initialize(1e12, 0); err != nil {
		b.Fatal(err)
	}
	if err := box.Configure(1, 0, 32); err != nil {
		b.Fatal(err)
	}
	if _, err := box.NoiseValue(16); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := box.NoiseValue(16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPBoxObsDisabled is the nil-plane noise hot path; CI pins
// it at 0 allocs/op.
func BenchmarkDPBoxObsDisabled(b *testing.B) { benchDPBoxObs(b, false) }

// BenchmarkDPBoxObsEnabled has the full plane attached (counters,
// histograms, odometer) for comparison; CI pins it at 0 allocs/op
// too.
func BenchmarkDPBoxObsEnabled(b *testing.B) { benchDPBoxObs(b, true) }

// benchReportSpan is the flight-recorder overhead guard: one full
// report span (noised → journal → tx → link-rx → admit → ack) per
// iteration, stamped against a nil recorder (the production default)
// or a live ring. The disabled path's contract is zero allocations;
// the enabled path must also stay allocation-free — the ring is
// fixed-capacity and pooled by construction.
func benchReportSpan(b *testing.B, enabled bool) {
	var fr *obs.FlightRecorder
	if enabled {
		fr = obs.NewFlightRecorder(1024)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i) % 512
		fr.Record(1, seq, obs.StageNoised)
		fr.Record(1, seq, obs.StageJournal)
		fr.Record(1, seq, obs.StageTx)
		fr.Record(1, seq, obs.StageLinkRx)
		fr.Record(1, seq, obs.StageAdmit)
		fr.Record(1, seq, obs.StageAck)
	}
}

// BenchmarkReportSpanDisabled is the nil-recorder span hot path; CI
// pins it at 0 allocs/op.
func BenchmarkReportSpanDisabled(b *testing.B) { benchReportSpan(b, false) }

// BenchmarkReportSpanEnabled stamps against a live 1024-slot ring.
func BenchmarkReportSpanEnabled(b *testing.B) { benchReportSpan(b, true) }

// BenchmarkMSP430SoftNoise measures the emulated software noising
// routine (thousands of emulated cycles per call).
func BenchmarkMSP430SoftNoise(b *testing.B) {
	n, err := msp430.NewSoftNoiser(msp430.FixedPoint20, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := n.Noise(100, 64, -3000, 3000); err != nil {
			b.Fatal(err)
		}
	}
}
