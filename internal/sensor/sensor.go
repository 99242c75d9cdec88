// Package sensor simulates the sensing side of a ULP node: sensors
// producing quantized readings and the serial (I²C-style) bus that
// the paper's Section V invokes when arguing the DP-Box critical path
// is adequate ("accompanying sensors take 10s of cycles to access").
package sensor

import (
	"errors"
	"math"
)

// Sensor produces scalar readings.
type Sensor interface {
	// Read returns the next reading.
	Read() (float64, error)
	// Range returns the sensor's [lo, hi] output range.
	Range() (lo, hi float64)
}

// ErrExhausted is returned by replay sensors at end of data.
var ErrExhausted = errors.New("sensor: replay exhausted")

// Replay replays a recorded dataset, optionally cycling.
type Replay struct {
	data  []float64
	pos   int
	cycle bool
	lo    float64
	hi    float64
}

// NewReplay builds a replay sensor over data. With cycle true, the
// trace restarts at the end. It panics on empty data.
func NewReplay(data []float64, cycle bool) *Replay {
	if len(data) == 0 {
		panic("sensor: empty replay data")
	}
	lo, hi := data[0], data[0]
	for _, v := range data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return &Replay{data: data, cycle: cycle, lo: lo, hi: hi}
}

// Read implements Sensor.
func (r *Replay) Read() (float64, error) {
	if r.pos >= len(r.data) {
		if !r.cycle {
			return 0, ErrExhausted
		}
		r.pos = 0
	}
	v := r.data[r.pos]
	r.pos++
	return v, nil
}

// Range implements Sensor.
func (r *Replay) Range() (float64, float64) { return r.lo, r.hi }

// Bus models a serial peripheral bus (I²C-like) clocked slower than
// the core: each transaction costs start/stop overhead plus 9 bus
// clocks per byte (8 data + ACK), expressed in core cycles.
type Bus struct {
	// CoreClocksPerBusClock is the clock ratio (e.g. 16 MHz core,
	// 400 kHz bus -> 40).
	CoreClocksPerBusClock int
}

// NewBus returns a bus with the given clock ratio. It panics if the
// ratio is not positive.
func NewBus(coreClocksPerBusClock int) *Bus {
	if coreClocksPerBusClock < 1 {
		panic("sensor: bus clock ratio must be positive")
	}
	return &Bus{CoreClocksPerBusClock: coreClocksPerBusClock}
}

// TransferCycles returns the core-cycle cost of moving n payload
// bytes (plus the address byte and start/stop conditions).
func (b *Bus) TransferCycles(n int) uint64 {
	if n < 0 {
		panic("sensor: negative transfer size")
	}
	busClocks := 2 + 9*(n+1) // start+stop + (addr + payload) bytes with ACKs
	return uint64(busClocks * b.CoreClocksPerBusClock)
}

// Reading is one sampled, bus-transferred sensor value.
type Reading struct {
	// Value is the sensor output.
	Value float64
	// BusCycles is the core-cycle cost of fetching it.
	BusCycles uint64
}

// Node couples a sensor to the core over a bus: Sample reads one
// value and accounts for the transfer (2 bytes per reading, the
// typical 10-16 bit ADC word).
type Node struct {
	Sensor Sensor
	Bus    *Bus
}

// Sample fetches one reading over the bus.
func (n *Node) Sample() (Reading, error) {
	v, err := n.Sensor.Read()
	if err != nil {
		return Reading{}, err
	}
	c := n.Bus.TransferCycles(2)
	return Reading{Value: v, BusCycles: c}, nil
}
