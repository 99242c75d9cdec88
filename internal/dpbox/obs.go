package dpbox

import (
	"ulpdp/internal/obs"
	"ulpdp/internal/urng"
)

// Metrics is the DP-Box's slice of the telemetry plane: every
// instrument the module and its budget ledger touch, pre-registered so
// hook sites are single atomic operations. A box booted with a nil
// *Metrics holds noMetrics instead, whose nil instruments make every
// hook a no-op at zero allocations (gated by
// BenchmarkDPBoxObsDisabled).
//
// One Metrics may be shared by many boxes — a Bank's channels or a
// fleet's nodes — distinguished by Config.ObsChannel, which indexes
// the privacy odometer and labels flight-recorder spans.
type Metrics struct {
	// Transaction counters.
	Transactions    *obs.Counter   // completed noising transactions
	Resamples       *obs.Counter   // total resample cycles
	ResamplesPerTxn *obs.Histogram // resamples per transaction
	Degraded        *obs.Counter   // watchdog trips → certified clamp
	CacheReplays    *obs.Counter   // zero-charge cache outputs
	SeqReplays      *obs.Counter   // per-seq release replays
	PowerLosses     *obs.Counter   // power-rail failures

	// Datapath counters (CORDIC/log evaluations and URNG draws).
	URNGDraws *obs.Counter
	LogEvals  *obs.Counter

	// URNG health battery.
	BatteryRuns   *obs.Counter
	BatteryFails  *obs.Counter
	BatteryWorstZ *obs.Gauge // worst |z| of the last run, milli-sigma

	// Privacy odometer and its decomposition: cumulative ε spent per
	// channel plus histograms of the charge sizes (sixteenth-nat
	// units) and charge bands (0 = interior, 1..n = segment bands,
	// n+1 = top band).
	Odometer    *obs.Odometer
	ChargeUnits *obs.Histogram
	ChargeBands *obs.Histogram
	Replenishes *obs.Counter

	// Journal protocol counters.
	JournalIntents     *obs.Counter
	JournalCommits     *obs.Counter
	JournalReplenishes *obs.Counter
	JournalRecovers    *obs.Counter

	// Flight, when non-nil, receives per-report span stamps (journal
	// commit, replay) keyed by (ObsChannel, seq). It is wired by the
	// fleet, not registered here; a nil recorder ignores the stamps.
	Flight *obs.FlightRecorder
}

// noMetrics is the detached plane a box booted without Obs holds:
// every instrument is nil, so every hook is a no-op.
var noMetrics Metrics

// NewMetrics registers (or re-binds, idempotently) the DP-Box metric
// schema on a registry. channels sizes the privacy odometer — one
// channel per Bank sensor or fleet node.
func NewMetrics(r *obs.Registry, channels int) *Metrics {
	return &Metrics{
		Transactions:    r.Counter("dpbox.transactions"),
		Resamples:       r.Counter("dpbox.resamples"),
		ResamplesPerTxn: r.Histogram("dpbox.resamples_per_txn", []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}),
		Degraded:        r.Counter("dpbox.degraded"),
		CacheReplays:    r.Counter("dpbox.cache_replays"),
		SeqReplays:      r.Counter("dpbox.seq_replays"),
		PowerLosses:     r.Counter("dpbox.power_losses"),

		URNGDraws: r.Counter("dpbox.urng_draws"),
		LogEvals:  r.Counter("dpbox.log_evals"),

		BatteryRuns:   r.Counter("urng.battery_runs"),
		BatteryFails:  r.Counter("urng.battery_fails"),
		BatteryWorstZ: r.Gauge("urng.battery_worst_z_milli"),

		Odometer:    r.Odometer("budget.odometer", channels),
		ChargeUnits: r.Histogram("budget.charge_units", []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}),
		ChargeBands: r.Histogram("budget.charge_bands", []int64{0, 1, 2, 3, 4, 5, 6, 7}),
		Replenishes: r.Counter("budget.replenishes"),

		JournalIntents:     r.Counter("budget.journal.intents"),
		JournalCommits:     r.Counter("budget.journal.commits"),
		JournalReplenishes: r.Counter("budget.journal.replenishes"),
		JournalRecovers:    r.Counter("budget.journal.recovers"),
	}
}

// worstZ extracts the largest |z| statistic of a battery run in
// milli-sigma (0 for an empty run).
func worstZ(res []urng.BatteryResult) int64 {
	worst := 0.0
	for _, r := range res {
		s := r.Statistic
		if s < 0 {
			s = -s
		}
		if s > worst {
			worst = s
		}
	}
	return int64(worst * 1000)
}

// countingSource counts URNG word draws on the way through. The
// wrapper is built once at power-up, only when a Metrics is attached,
// so the disabled path never sees it.
type countingSource struct {
	src urng.Source
	c   *obs.Counter
}

func (s countingSource) Uint32() uint32 {
	s.c.Inc()
	return s.src.Uint32()
}
