package dpbox

import (
	"testing"

	"ulpdp/internal/cordic"
	"ulpdp/internal/fault"
	"ulpdp/internal/obs"
)

// countingCore is a log unit that counts its own evaluations.
type countingCore struct{ n uint64 }

func (c *countingCore) LnRaw(v int64, frac int) int64 {
	c.n++
	return cordic.Default().LnRaw(v, frac)
}

func (c *countingCore) Frac() int { return cordic.Default().Frac() }

// logEvalsReports runs 17 thresholding reports over the whole range,
// then 256 resampling reports at the range edges, where the window
// forces redraws, with an idle cycle after each. It returns every
// result and the total resamples.
func logEvalsReports(t *testing.T, b *DPBox) ([]NoiseResult, int) {
	t.Helper()
	var out []NoiseResult
	resamples := 0
	report := func(x int64) {
		r, err := b.NoiseValue(x)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
		resamples += r.Resamples
		b.Step() // an idle cycle precomputes the next sample
	}
	for x := int64(0); x <= 16; x++ {
		report(x)
	}
	if err := b.SetResampling(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		report(int64(i % 2 * 16))
	}
	return out, resamples
}

// TestLogEvalsMatchLogUnit pins dpbox.log_evals to the log unit's own
// evaluation count: the box counts one evaluation per Laplace sample,
// the sampler evaluates its (untabled) log unit once per sample, and a
// fault plane's log wrapper sits outside the counted unit. It also
// pins that telemetry leaves the datapath alone: a traced box on the
// default core keeps the default log unit (so its sampler reads the
// shared magnitude table) and releases exactly what an untraced box
// releases.
func TestLogEvalsMatchLogUnit(t *testing.T) {
	cases := []struct {
		name   string
		ct     bool
		faults bool
	}{
		{"thresholding+resampling", false, false},
		{"constant-time", true, false},
		{"fault-plane", false, true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := uint64(40 + i)
			cfgFor := func(log *countingCore, m *Metrics) (Config, *fault.Plane) {
				cfg := smallCfg(seed)
				cfg.ConstantTime = tc.ct
				cfg.Obs = m
				if log != nil {
					cfg.Log = log
				}
				var fp *fault.Plane
				if tc.faults {
					fp = fault.NewPlane()
					fp.SetLogFault(fault.LogOffset(1 << 30))
					cfg.Faults = fp
				}
				return cfg, fp
			}

			unit := &countingCore{}
			m := NewMetrics(obs.NewRegistry(), 1)
			cfg, fp := cfgFor(unit, m)
			_, resamples := logEvalsReports(t, boot(t, cfg, 1e9))
			if got := m.LogEvals.Value(); got != unit.n || got == 0 {
				t.Fatalf("log_evals %d, log unit evaluated %d times", got, unit.n)
			}
			if !tc.ct && resamples == 0 {
				t.Fatal("no resampling report redrew")
			}
			if fp != nil && fp.Injections(fault.KindLog) != unit.n {
				t.Fatalf("%d log faults injected over %d evaluations", fp.Injections(fault.KindLog), unit.n)
			}

			plainCfg, _ := cfgFor(nil, nil)
			tracedCfg, _ := cfgFor(nil, NewMetrics(obs.NewRegistry(), 1))
			plain, traced := boot(t, plainCfg, 1e9), boot(t, tracedCfg, 1e9)
			if !tc.faults && traced.cfg.Log != nil {
				t.Fatalf("traced box replaced the default log unit with %T", traced.cfg.Log)
			}
			want, _ := logEvalsReports(t, plain)
			got, _ := logEvalsReports(t, traced)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("report %d: traced %+v, untraced %+v", k, got[k], want[k])
				}
			}
			if plain.Cycles() != traced.Cycles() {
				t.Fatalf("cycles: traced %d, untraced %d", traced.Cycles(), plain.Cycles())
			}
		})
	}
}
