package sensor

import (
	"errors"
	"testing"
)

func TestReplayExhaustsAndCycles(t *testing.T) {
	data := []float64{1, 2, 3}
	r := NewReplay(data, false)
	for i, want := range data {
		v, err := r.Read()
		if err != nil || v != want {
			t.Fatalf("read %d = %g, %v", i, v, err)
		}
	}
	if _, err := r.Read(); !errors.Is(err, ErrExhausted) {
		t.Errorf("err = %v, want ErrExhausted", err)
	}
	c := NewReplay(data, true)
	for i := 0; i < 10; i++ {
		v, err := c.Read()
		if err != nil || v != data[i%3] {
			t.Fatalf("cycled read %d = %g, %v", i, v, err)
		}
	}
}

func TestReplayRangeAndRemaining(t *testing.T) {
	r := NewReplay([]float64{5, -2, 9}, false)
	lo, hi := r.Range()
	if lo != -2 || hi != 9 {
		t.Errorf("range = [%g, %g]", lo, hi)
	}
	// Exactly the three recorded samples remain to be read.
	for i := 0; i < 3; i++ {
		if _, err := r.Read(); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if _, err := r.Read(); err != ErrExhausted {
		t.Errorf("read past the end: %v, want ErrExhausted", err)
	}
}

func TestReplayPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReplay(nil, false)
}

func TestBusCycleModel(t *testing.T) {
	b := NewBus(40) // 16 MHz core / 400 kHz bus
	// 2-byte payload: start/stop (2) + 3 bytes * 9 clocks = 29 bus
	// clocks = 1160 core cycles — "10s of cycles" at bus speed,
	// ~1000s at core speed.
	if got := b.TransferCycles(2); got != 29*40 {
		t.Errorf("transfer cycles = %d, want %d", got, 29*40)
	}
}

func TestBusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBus(0)
}

func TestBusNegativeTransferPanics(t *testing.T) {
	b := NewBus(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.TransferCycles(-1)
}

func TestNodeSample(t *testing.T) {
	n := &Node{Sensor: NewReplay([]float64{42}, true), Bus: NewBus(40)}
	r, err := n.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 42 {
		t.Errorf("value = %g", r.Value)
	}
	if r.BusCycles != 29*40 {
		t.Errorf("bus cycles = %d", r.BusCycles)
	}
}

func TestNodePropagatesExhaustion(t *testing.T) {
	n := &Node{Sensor: NewReplay([]float64{1}, false), Bus: NewBus(1)}
	if _, err := n.Sample(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Sample(); !errors.Is(err, ErrExhausted) {
		t.Errorf("err = %v", err)
	}
}
