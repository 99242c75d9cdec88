package fault

import "testing"

type fixedSource struct{ w uint32 }

func (s *fixedSource) Uint32() uint32 { return s.w }

type fixedLog struct{ raw int64 }

func (l *fixedLog) LnRaw(int64, int) int64 { return l.raw }
func (l *fixedLog) Frac() int              { return 14 }

func TestNilInjectorsPassThrough(t *testing.T) {
	p := NewPlane()
	src := p.WrapSource(&fixedSource{w: 0xDEADBEEF})
	if got := src.Uint32(); got != 0xDEADBEEF {
		t.Fatalf("wrapped source perturbed with no injector: %#x", got)
	}
	lg := p.WrapLog(&fixedLog{raw: -42})
	if got := lg.LnRaw(1, 14); got != -42 {
		t.Fatalf("wrapped log perturbed with no injector: %d", got)
	}
	if lg.Frac() != 14 {
		t.Fatalf("Frac not forwarded")
	}
	if c, d := p.PerturbCommand(3, 7); c != 3 || d != 7 {
		t.Fatalf("command perturbed with no injector: %d %d", c, d)
	}
	for k := KindURNG; k <= KindPower; k++ {
		if p.Injections(k) != 0 {
			t.Fatalf("spurious injection count for %v", k)
		}
	}
}

func TestURNGInjectors(t *testing.T) {
	cases := []struct {
		name string
		f    URNGFault
		in   uint32
		want uint32
	}{
		{"stuck", StuckWord(5), 0xFFFF, 5},
	}
	for _, tc := range cases {
		p := NewPlane()
		p.SetURNGFault(tc.f)
		src := p.WrapSource(&fixedSource{w: tc.in})
		if got := src.Uint32(); got != tc.want {
			t.Errorf("%s: got %#x want %#x", tc.name, got, tc.want)
		}
		if p.Injections(KindURNG) != 1 {
			t.Errorf("%s: injection count %d", tc.name, p.Injections(KindURNG))
		}
	}
}

func TestScheduleThenPassThrough(t *testing.T) {
	p := NewPlane()
	p.SetURNGFault(Schedule([]uint32{9, 8}))
	src := p.WrapSource(&fixedSource{w: 100})
	for i, want := range []uint32{9, 8, 100, 100} {
		if got := src.Uint32(); got != want {
			t.Fatalf("draw %d: got %d want %d", i, got, want)
		}
	}
}

func TestLogInjectors(t *testing.T) {
	p := NewPlane()
	p.SetLogFault(LogOffset(10))
	lg := p.WrapLog(&fixedLog{raw: -100})
	if got := lg.LnRaw(1, 14); got != -90 {
		t.Fatalf("offset: got %d", got)
	}
	if p.Injections(KindLog) != 1 {
		t.Fatalf("injection count %d", p.Injections(KindLog))
	}
}

func TestCommandBitFlipPeriod(t *testing.T) {
	p := NewPlane()
	p.SetCommandFault(CommandBitFlip(0b100, 1, 2))
	c1, d1 := p.PerturbCommand(1, 0)
	c2, d2 := p.PerturbCommand(1, 0)
	if c1 != 1 || d1 != 0 {
		t.Fatalf("first transaction perturbed: %d %d", c1, d1)
	}
	if c2 != 0b101 || d2 != 1 {
		t.Fatalf("second transaction not perturbed: %d %d", c2, d2)
	}
	if p.Injections(KindCommand) != 1 {
		t.Fatalf("injection count %d", p.Injections(KindCommand))
	}
}

func TestPowerLossSchedule(t *testing.T) {
	p := NewPlane()
	p.SchedulePowerLoss(2)
	for c := 0; c < 2; c++ {
		if p.Tick() {
			t.Fatalf("power lost early at cycle %d", c)
		}
	}
	if !p.Tick() {
		t.Fatal("power loss not delivered at scheduled cycle")
	}
	if p.Tick() {
		t.Fatal("power loss delivered twice")
	}
	if p.Injections(KindPower) != 1 {
		t.Fatalf("injection count %d", p.Injections(KindPower))
	}
	// Scheduling in the past fires on the next tick.
	p.SchedulePowerLoss(0)
	if !p.Tick() {
		t.Fatal("past-cycle schedule did not fire")
	}
}

func TestNilPlaneSemantics(t *testing.T) {
	// A zero plane injects nothing and never loses power.
	var p Plane
	if p.Tick() {
		t.Fatal("zero plane lost power")
	}
	if c, d := p.PerturbCommand(2, 3); c != 2 || d != 3 {
		t.Fatal("zero plane perturbed command")
	}
}

func TestPacketSitePassThrough(t *testing.T) {
	p := NewPlane()
	fate := p.PerturbPacket(DirUp, []byte{1, 2, 3})
	if fate.Drop || fate.Duplicates != 0 || fate.Delay != 0 || fate.Corrupt {
		t.Fatalf("non-zero fate with no injector: %+v", fate)
	}
	if p.Injections(KindPacket) != 0 {
		t.Fatalf("spurious packet injection count")
	}
}

func TestLossyLinkDeterministicSchedule(t *testing.T) {
	// Two planes with the same seed and profile must hand every frame
	// the same fate, frame for frame.
	prof := LinkProfile{Drop: 0.3, Duplicate: 0.2, Reorder: 0.2, Corrupt: 0.2, MaxDelay: 4}
	a, b := NewPlane(), NewPlane()
	a.SetLossyLink(7, prof)
	b.SetLossyLink(7, prof)
	payload := []byte{0xAB, 0xCD, 0xEF, 0x01}
	for i := 0; i < 512; i++ {
		fa := a.PerturbPacket(DirUp, payload)
		fb := b.PerturbPacket(DirUp, payload)
		if fa != fb {
			t.Fatalf("frame %d: fates diverge: %+v vs %+v", i, fa, fb)
		}
		if fa.Delay < 0 || fa.Delay > prof.MaxDelay {
			t.Fatalf("frame %d: delay %d outside [0, %d]", i, fa.Delay, prof.MaxDelay)
		}
		if fa.Corrupt && (fa.FlipBit < 0 || fa.FlipBit >= len(payload)*8) {
			t.Fatalf("frame %d: flip bit %d out of payload range", i, fa.FlipBit)
		}
	}
	if a.Injections(KindPacket) != b.Injections(KindPacket) {
		t.Fatalf("injection counts diverge: %d vs %d",
			a.Injections(KindPacket), b.Injections(KindPacket))
	}
	if a.Injections(KindPacket) == 0 {
		t.Fatal("profile with 0.3 drop delivered zero injections over 512 frames")
	}
}

func TestLossyLinkRates(t *testing.T) {
	// Loose sanity band on the empirical drop rate over many frames.
	p := NewPlane()
	p.SetLossyLink(11, LinkProfile{Drop: 0.25})
	const n = 20000
	drops := 0
	for i := 0; i < n; i++ {
		if p.PerturbPacket(DirUp, []byte{1}).Drop {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.22 || rate > 0.28 {
		t.Fatalf("empirical drop rate %.3f far from configured 0.25", rate)
	}
}

func TestZeroProfileIsPerfectLink(t *testing.T) {
	p := NewPlane()
	p.SetLossyLink(3, LinkProfile{})
	for i := 0; i < 256; i++ {
		if fate := p.PerturbPacket(DirDown, []byte{9, 9}); fate != (PacketFate{}) {
			t.Fatalf("zero profile perturbed frame %d: %+v", i, fate)
		}
	}
	if p.Injections(KindPacket) != 0 {
		t.Fatal("zero profile counted injections")
	}
}

// TestLossyLinkReplacesAndIsReplaced: the plane's packet site holds one
// injector at a time — SetLossyLink displaces a PacketFault and
// SetPacketFault (nil included) displaces the lossy profile — and
// installing the profile allocates nothing.
func TestLossyLinkReplacesAndIsReplaced(t *testing.T) {
	var p Plane
	p.SetPacketFault(func(uint64, uint8, []byte) PacketFate { return PacketFate{Duplicates: 1} })
	if n := testing.AllocsPerRun(10, func() { p.SetLossyLink(5, LinkProfile{Drop: 1}) }); n != 0 {
		t.Fatalf("SetLossyLink allocates %v times", n)
	}
	if fate := p.PerturbPacket(DirUp, []byte{1}); !fate.Drop || fate.Duplicates != 0 {
		t.Fatalf("lossy profile did not displace the injector: %+v", fate)
	}
	p.SetPacketFault(nil)
	if fate := p.PerturbPacket(DirUp, []byte{1}); fate != (PacketFate{}) {
		t.Fatalf("SetPacketFault(nil) left the profile installed: %+v", fate)
	}
}
