// Package fault is the injectable fault plane for the DP-Box pipeline
// and the fleet transport above it.
//
// A *Plane carries at most one injector per fault site — the URNG word
// stream, the CORDIC/log datapath, the command register, the power
// rail, and the packet link — and is threaded through the simulator by
// the owning component (dpbox wires it into urng.Source and
// laplace.LogUnit wrappers and into its command decoder and cycle
// counter; transport.Link wires it into its frame scheduler). Every
// hook is zero-cost-when-nil: with no injector installed a wrapped
// call is one pointer load and a nil compare on top of the real draw,
// and nothing allocates on the hot path.
//
// The device sites are deliberately single-owner, single-goroutine
// state, like the cycle-level simulator they perturb. The packet site
// is the one exception: transport links carry frames between
// goroutines, so PerturbPacket serializes itself internally and an
// installed PacketFault must be safe under that serialization (the
// canned SetLossyLink injector is).
package fault

import "sync"

// Kind labels a fault site for the injection counters.
type Kind int

const (
	// KindURNG counts perturbed uniform random words.
	KindURNG Kind = iota
	// KindLog counts perturbed CORDIC/log outputs.
	KindLog
	// KindCommand counts perturbed command-register transactions.
	KindCommand
	// KindPower counts delivered power-loss events.
	KindPower
	// KindPacket counts perturbed transport frames (dropped,
	// duplicated, delayed or corrupted).
	KindPacket

	kindCount
)

// String names the fault site.
func (k Kind) String() string {
	switch k {
	case KindURNG:
		return "urng"
	case KindLog:
		return "log"
	case KindCommand:
		return "command"
	case KindPower:
		return "power"
	case KindPacket:
		return "packet"
	}
	return "unknown"
}

// URNGFault perturbs one uniform random word. cycle is the owning
// device's cycle counter at the time of the draw.
type URNGFault func(cycle uint64, word uint32) uint32

// LogFault perturbs one raw fixed-point log/CORDIC output.
type LogFault func(cycle uint64, raw int64) int64

// CommandFault perturbs one command-port transaction (3-bit opcode
// plus data word) before the device decodes it.
type CommandFault func(cycle uint64, cmd uint8, data int64) (uint8, int64)

// Link directions for the packet site.
const (
	// DirUp labels node→collector frames (reports).
	DirUp uint8 = 0
	// DirDown labels collector→node frames (ACKs).
	DirDown uint8 = 1
)

// PacketFate is the verdict of the packet injector on one frame. The
// zero value delivers the frame untouched, exactly once, in order.
type PacketFate struct {
	// Drop discards the frame entirely.
	Drop bool
	// Duplicates is the number of extra copies delivered after the
	// original.
	Duplicates int
	// Delay holds the frame back until that many later frames have
	// been offered on the same direction (reordering). The link
	// releases held frames when the hold expires or the direction
	// drains, so a delayed frame is late, never lost.
	Delay int
	// Corrupt flips FlipBit (an index into the payload's bits, taken
	// modulo its length) in flight; the receiver's checksum is
	// expected to catch it.
	Corrupt bool
	// FlipBit selects the corrupted bit when Corrupt is set.
	FlipBit int
}

// PacketFault decides the fate of one transport frame. n counts frames
// offered on the plane's packet site (both directions), and payload is
// the marshalled frame — the fault must not mutate it (corruption goes
// through FlipBit so the link can corrupt a copy).
type PacketFault func(n uint64, dir uint8, payload []byte) PacketFate

// Plane is one device's fault plane. The zero value (and a nil *Plane)
// injects nothing.
type Plane struct {
	cycle uint64

	urngFault URNGFault
	logFault  LogFault
	cmdFault  CommandFault

	powerArmed bool
	powerCycle uint64
	powerSink  PowerSink

	counts [kindCount]uint64

	// The packet site crosses goroutines (transport links are
	// concurrent); its injector, frame counter and injection count are
	// guarded separately so the single-goroutine device sites stay
	// lock-free.
	pktMu    sync.Mutex
	pktFault PacketFault
	lossy    lossyLink // the canned injector, live when lossyOn
	lossyOn  bool
	pktN     uint64
	pktCount uint64
}

// NewPlane returns an empty fault plane.
func NewPlane() *Plane { return &Plane{} }

// SetURNGFault installs (or, with nil, removes) the URNG injector.
func (p *Plane) SetURNGFault(f URNGFault) { p.urngFault = f }

// SetLogFault installs (or removes) the CORDIC/log injector.
func (p *Plane) SetLogFault(f LogFault) { p.logFault = f }

// SetCommandFault installs (or removes) the command-register injector.
func (p *Plane) SetCommandFault(f CommandFault) { p.cmdFault = f }

// SchedulePowerLoss arms a power-loss event at the given device cycle
// (0-based: cycle 0 kills the first tick). At most one event is armed
// at a time; re-arming replaces the previous schedule.
func (p *Plane) SchedulePowerLoss(cycle uint64) {
	p.powerArmed = true
	p.powerCycle = cycle
}

// PowerSink is a non-volatile store that must lose power with the
// rail — in practice an internal/nvm supply cell. It is an interface
// here only to keep the fault plane's dependency arrow pointing
// outward.
type PowerSink interface {
	// Kill drops the store's power; all further writes fail closed.
	Kill()
}

// BindPowerSink attaches the store the power-loss site kills when the
// rail fails (nil detaches). The owning device still loses its own
// volatile state via Tick's return value; the sink binding guarantees
// the NVM dies at the same instant even if the device's failure path
// is itself faulty.
func (p *Plane) BindPowerSink(s PowerSink) { p.powerSink = s }

// Tick advances the plane's cycle counter and reports whether the
// power rail fails on this cycle. The owning device calls it once per
// device cycle and must treat a true return as an immediate loss of
// all volatile state.
func (p *Plane) Tick() (powerLost bool) {
	c := p.cycle
	p.cycle++
	if p.powerArmed && c >= p.powerCycle {
		p.powerArmed = false
		p.counts[KindPower]++
		if p.powerSink != nil {
			p.powerSink.Kill()
		}
		return true
	}
	return false
}

// Cycle returns the plane's current cycle counter.
func (p *Plane) Cycle() uint64 { return p.cycle }

// Injections returns how many faults have been delivered at a site.
func (p *Plane) Injections(k Kind) uint64 {
	if k < 0 || k >= kindCount {
		return 0
	}
	if k == KindPacket {
		p.pktMu.Lock()
		defer p.pktMu.Unlock()
		return p.pktCount
	}
	return p.counts[k]
}

// SetPacketFault installs (or, with nil, removes) the packet injector,
// replacing any SetLossyLink profile. Safe to call concurrently with
// link traffic.
func (p *Plane) SetPacketFault(f PacketFault) {
	p.pktMu.Lock()
	p.pktFault, p.lossyOn = f, false
	p.pktMu.Unlock()
}

// PerturbPacket applies the packet injector, if any, to one frame and
// returns its fate. Frames from concurrent senders are serialized, so
// the injector sees a total order and deterministic schedules stay
// deterministic per-stream. The zero fate (deliver untouched) is
// returned when no injector is installed.
func (p *Plane) PerturbPacket(dir uint8, payload []byte) PacketFate {
	p.pktMu.Lock()
	defer p.pktMu.Unlock()
	f := p.pktFault
	if f == nil && !p.lossyOn {
		return PacketFate{}
	}
	n := p.pktN
	p.pktN++
	var fate PacketFate
	if f != nil {
		fate = f(n, dir, payload)
	} else {
		fate = p.lossy.fate(payload)
	}
	if fate.Drop || fate.Duplicates != 0 || fate.Delay != 0 || fate.Corrupt {
		p.pktCount++
	}
	return fate
}

// PerturbCommand applies the command-register injector, if any.
func (p *Plane) PerturbCommand(cmd uint8, data int64) (uint8, int64) {
	if f := p.cmdFault; f != nil {
		c2, d2 := f(p.cycle, cmd, data)
		if c2 != cmd || d2 != data {
			p.counts[KindCommand]++
		}
		return c2, d2
	}
	return cmd, data
}

// uint32Source matches urng.Source without importing it, keeping this
// package dependency-free; dpbox adapts the concrete interface.
type uint32Source interface {
	Uint32() uint32
}

// wrappedSource applies the plane's URNG injector to an inner source.
type wrappedSource struct {
	p     *Plane
	inner uint32Source
}

// Uint32 draws from the inner source and perturbs the word if an
// injector is installed.
func (s *wrappedSource) Uint32() uint32 {
	w := s.inner.Uint32()
	if f := s.p.urngFault; f != nil {
		w2 := f(s.p.cycle, w)
		if w2 != w {
			s.p.counts[KindURNG]++
		}
		return w2
	}
	return w
}

// WrapSource returns a source that feeds inner through the plane's
// URNG injector. The wrapper is allocated once at configuration time;
// per-draw it costs one nil check when no injector is installed.
func (p *Plane) WrapSource(inner uint32Source) interface{ Uint32() uint32 } {
	return &wrappedSource{p: p, inner: inner}
}

// logUnit matches laplace.LogUnit without importing it.
type logUnit interface {
	LnRaw(v int64, frac int) int64
	Frac() int
}

// wrappedLog applies the plane's log injector to an inner log unit.
type wrappedLog struct {
	p     *Plane
	inner logUnit
}

// LnRaw evaluates the inner unit and perturbs the raw output if an
// injector is installed.
func (l *wrappedLog) LnRaw(v int64, frac int) int64 {
	r := l.inner.LnRaw(v, frac)
	if f := l.p.logFault; f != nil {
		r2 := f(l.p.cycle, r)
		if r2 != r {
			l.p.counts[KindLog]++
		}
		return r2
	}
	return r
}

// Frac forwards the inner unit's fraction width.
func (l *wrappedLog) Frac() int { return l.inner.Frac() }

// WrapLog returns a log unit that feeds inner through the plane's
// CORDIC/log injector.
func (p *Plane) WrapLog(inner logUnit) interface {
	LnRaw(v int64, frac int) int64
	Frac() int
} {
	return &wrappedLog{p: p, inner: inner}
}

// --- canned injectors ---

// StuckWord returns a URNG fault that replaces every draw with a
// constant word (a stuck-at fault on the whole register).
func StuckWord(w uint32) URNGFault {
	return func(uint64, uint32) uint32 { return w }
}

// LogOffset returns a log fault that adds a constant raw offset to
// every CORDIC output (systematic datapath error).
func LogOffset(delta int64) LogFault {
	return func(_ uint64, r int64) int64 { return r + delta }
}

// LinkProfile parameterizes the canned lossy-link packet injector.
// All probabilities are per-frame and independent; the zero profile is
// a perfect link.
type LinkProfile struct {
	// Drop is the probability a frame is discarded.
	Drop float64
	// Duplicate is the probability one extra copy is delivered.
	Duplicate float64
	// Reorder is the probability a frame is held back behind later
	// frames (delayed by 1..MaxDelay slots).
	Reorder float64
	// Corrupt is the probability one payload bit is flipped in flight.
	Corrupt float64
	// MaxDelay caps the reorder holdback in frames (default 3).
	MaxDelay int
}

// SetLossyLink installs the canned lossy-link packet injector,
// replacing any PacketFault: each frame's fate is drawn from prof with
// a dedicated seeded generator (an xorshift64*, so the schedule is
// reproducible and independent of every device RNG). The generator
// lives inside the plane, so installing it allocates nothing, and
// PerturbPacket's serialization makes it concurrency-safe.
func (p *Plane) SetLossyLink(seed uint64, prof LinkProfile) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	if prof.MaxDelay <= 0 {
		prof.MaxDelay = 3
	}
	p.pktMu.Lock()
	p.pktFault, p.lossy, p.lossyOn = nil, lossyLink{state: seed, prof: prof}, true
	p.pktMu.Unlock()
}

// lossyLink is SetLossyLink's generator state and profile.
type lossyLink struct {
	state uint64
	prof  LinkProfile
}

func (l *lossyLink) next() uint64 {
	l.state ^= l.state >> 12
	l.state ^= l.state << 25
	l.state ^= l.state >> 27
	return l.state * 0x2545F4914F6CDD1D
}

func (l *lossyLink) unit() float64 {
	return float64(l.next()>>11) / (1 << 53)
}

// fate draws one frame's fate.
func (l *lossyLink) fate(payload []byte) PacketFate {
	var fate PacketFate
	// Every frame draws drop, duplicate and reorder exactly once,
	// so one frame's fate never shifts the draws of the next.
	if l.unit() < l.prof.Drop {
		fate.Drop = true
	}
	if l.unit() < l.prof.Duplicate {
		fate.Duplicates = 1
	}
	if l.unit() < l.prof.Reorder {
		fate.Delay = 1 + int(l.next()%uint64(l.prof.MaxDelay))
	}
	if l.unit() < l.prof.Corrupt && len(payload) > 0 {
		fate.Corrupt = true
		fate.FlipBit = int(l.next() % uint64(len(payload)*8))
	}
	return fate
}

// CommandBitFlip returns a command fault that XORs cmdMask into the
// opcode and dataMask into the data word on every period-th
// transaction (period 0 or 1 means every transaction).
func CommandBitFlip(cmdMask uint8, dataMask int64, period uint64) CommandFault {
	if period == 0 {
		period = 1
	}
	var n uint64
	return func(_ uint64, cmd uint8, data int64) (uint8, int64) {
		n++
		if n%period == 0 {
			return cmd ^ cmdMask, data ^ dataMask
		}
		return cmd, data
	}
}
