package mem

import "testing"

// Multi-chip extension tests (Figure 15: a line of chips extends the
// line of cores; crossing the chip edge costs extra latency and
// serializes on one external link pair per chip).

func chipSys(cores, perChip int) *System {
	cfg := DefaultConfig(cores)
	cfg.CoresPerChip = perChip
	cfg.ChipHopLat = 12
	return testSys(cfg)
}

func TestChipOf(t *testing.T) {
	cfg := DefaultConfig(8)
	if cfg.ChipOf(7) != 0 {
		t.Error("single chip: every core on chip 0")
	}
	cfg.CoresPerChip = 4
	if cfg.ChipOf(3) != 0 || cfg.ChipOf(4) != 1 || cfg.ChipOf(7) != 1 {
		t.Error("chip mapping wrong")
	}
}

func TestCrossChipAccessSlower(t *testing.T) {
	// fresh system per probe: link reservations would otherwise leak
	// between measurements
	lat := func(perChip, from, bank int) uint64 {
		s := chipSys(8, perChip)
		var done uint64
		s.SubmitLoad(1000, from, s.SharedAddr(bank, 0), Width32, false,
			onLoad(s, func(_ uint32, d uint64) { done = d }))
		now := uint64(1000)
		for !s.Drained() {
			now++
			s.Step(now)
		}
		return done - 1000
	}
	// core 1 -> bank 6: same distance in the router tree, but the second
	// machine crosses a chip boundary
	lw := lat(8, 1, 6)
	la := lat(4, 1, 6)
	if la <= lw {
		t.Errorf("cross-chip access (%d cycles) must exceed in-chip (%d)", la, lw)
	}
	// four extra chip hops of 12 each way
	if la < lw+4*12 {
		t.Errorf("cross-chip penalty too small: %d vs %d", la, lw)
	}
	// in-chip accesses on the two-chip machine are unaffected
	if lat(4, 1, 2) != lat(8, 1, 2) {
		t.Errorf("in-chip access must not pay the chip penalty")
	}
}

func TestChipLinkSerializes(t *testing.T) {
	s := chipSys(8, 4)
	// all four cores of chip 0 access chip 1 simultaneously: the single
	// external request link serializes them
	var dones []uint64
	for c := 0; c < 4; c++ {
		s.SubmitLoad(0, c, s.SharedAddr(6, 0), Width32, false,
			onLoad(s, func(_ uint32, d uint64) { dones = append(dones, d) }))
	}
	now := uint64(0)
	for !s.Drained() {
		now++
		s.Step(now)
	}
	seen := map[uint64]bool{}
	for _, d := range dones {
		if seen[d] {
			t.Errorf("completions collide at %d: the chip link must serialize", d)
		}
		seen[d] = true
	}
}

func TestCrossChipForwardBackward(t *testing.T) {
	s := chipSys(8, 4)
	var fwdIn, fwdCross, backIn, backCross uint64
	s.SendForward(100, 1, 2, onMsg(s, func(d uint64) { fwdIn = d - 100 }))
	s.SendForward(100, 3, 4, onMsg(s, func(d uint64) { fwdCross = d - 100 }))
	s.SendBackward(100, 2, 1, onMsg(s, func(d uint64) { backIn = d - 100 }))
	s.SendBackward(100, 4, 3, onMsg(s, func(d uint64) { backCross = d - 100 }))
	now := uint64(100)
	for !s.Drained() {
		now++
		s.Step(now)
	}
	if fwdCross <= fwdIn {
		t.Errorf("forward across the chip edge (%d) must exceed in-chip (%d)", fwdCross, fwdIn)
	}
	if backCross <= backIn {
		t.Errorf("backward across the chip edge (%d) must exceed in-chip (%d)", backCross, backIn)
	}
}
