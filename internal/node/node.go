// Package node assembles the complete ULP node the paper sketches in
// Fig. 10: an MSP430 microcontroller with a DP-Box attached as a
// memory-mapped peripheral. Firmware (real emulated MSP430 code)
// configures the DP-Box through its register file and requests noised
// sensor readings; the DP-Box enforces privacy in hardware regardless
// of what the software does — the paper's integrity argument made
// runnable.
//
// Register map (word registers at Base):
//
//	+0  CMD    write: low 3 bits are the DP-Box command port; the
//	           current DATA register is presented as the data word
//	+2  DATA   read/write: the data port
//	+4  OUT    read: the noised output (valid when STATUS.ready)
//	+6  STATUS read: bit0 ready, bits1-2 phase (3 = dead), bit3
//	           cache-hit, bit4 URNG-unhealthy, bit5 degraded
//	           (resample watchdog tripped); reading STATUS while
//	           noising steps the DP-Box one cycle (models the
//	           polling clock)
//	+8  BUDGET read: remaining budget in sixteenth-nats (saturated
//	           to 16 bits)
package node

import (
	"ulpdp/internal/dpbox"
	"ulpdp/internal/msp430"
)

// Register offsets from Base.
const (
	RegCmd    = 0
	RegData   = 2
	RegOut    = 4
	RegStatus = 6
	RegBudget = 8
	regSpan   = 10
)

// Status bits. The two-bit phase field reports dpbox.PhaseDead (3)
// after a power-rail failure; firmware can distinguish "busy" from
// "gone" without a side channel.
const (
	StatusReady     = 1 << 0
	StatusPhaseLo   = 1 << 1 // two-bit phase field
	StatusCache     = 1 << 3
	StatusUnhealthy = 1 << 4 // URNG health gate tripped: box serves cache only
	StatusDegraded  = 1 << 5 // resample watchdog tripped: output is the certified clamp
)

// Port maps a DP-Box into an MSP430's data space.
type Port struct {
	// Box is the attached hardware module.
	Box *dpbox.DPBox
	// Base is the first mapped address (word aligned).
	Base uint16

	data    int64
	lastErr error
}

// NewPort builds the mapping. It panics on a nil box or unaligned
// base (construction-time wiring errors).
func NewPort(box *dpbox.DPBox, base uint16) *Port {
	if box == nil {
		panic("node: nil DP-Box")
	}
	if base%2 != 0 {
		panic("node: unaligned peripheral base")
	}
	return &Port{Box: box, Base: base}
}

// Contains implements msp430.Peripheral.
func (p *Port) Contains(addr uint16) bool {
	return addr >= p.Base && addr < p.Base+regSpan
}

// ReadWord implements msp430.Peripheral.
func (p *Port) ReadWord(addr uint16) uint16 {
	switch addr - p.Base {
	case RegData:
		return uint16(p.data)
	case RegOut:
		return uint16(p.Box.Output())
	case RegStatus:
		// Polling the status register advances the peripheral clock
		// while a transaction is in flight (resampling cycles).
		if p.Box.Phase() == dpbox.PhaseNoising {
			p.Box.Step()
		}
		var s uint16
		if p.Box.Ready() {
			s |= StatusReady
		}
		s |= uint16(p.Box.Phase()) << 1
		if p.Box.Ready() && p.Box.LastFromCache() {
			s |= StatusCache
		}
		if !p.Box.Healthy() {
			s |= StatusUnhealthy
		}
		if p.Box.Ready() && p.Box.LastDegraded() {
			s |= StatusDegraded
		}
		return s
	case RegBudget:
		return uint16(min(max(p.Box.BudgetUnits(), 0), 0xFFFF))
	}
	return 0
}

// WriteWord implements msp430.Peripheral.
func (p *Port) WriteWord(addr uint16, v uint16) {
	switch addr - p.Base {
	case RegData:
		p.data = int64(int16(v)) // sign-extended data port
	case RegCmd:
		// Errors surface as a sticky zero STATUS (the firmware sees
		// never-ready); the Go-level driver can still inspect them.
		p.lastErr = p.Box.Command(dpbox.Command(v&7), p.data)
	}
}

// LastErr returns the most recent command error (nil if none): the
// hardware swallows bad commands — firmware only sees a never-ready
// status — but tests and Go-level drivers can inspect the cause.
func (p *Port) LastErr() error { return p.lastErr }

// Node is the assembled system: CPU + DP-Box port.
type Node struct {
	CPU  *msp430.CPU
	Port *Port
}

// New assembles a node with the DP-Box mapped at base.
func New(box *dpbox.DPBox, base uint16) *Node {
	cpu := msp430.New()
	port := NewPort(box, base)
	cpu.AttachPeripheral(port)
	return &Node{CPU: cpu, Port: port}
}
