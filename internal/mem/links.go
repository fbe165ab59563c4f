package mem

import (
	"fmt"

	"repro/internal/perf"
)

// Inter-core message transport.
//
// Besides memory transactions, the LBP cores exchange small control
// messages: hart start addresses and ending-hart signals travel on the
// forward neighbor links (blue arrows of Figure 9), join addresses and
// p_swre result values travel on the backward line (magenta arrows).
// These share the deterministic link-slot allocation and the event queue
// of the memory system so that all machine events are totally ordered.

// Msg is a control message between harts (Figure 9): Kind and its
// operands are the machine's; the system only carries them, by value,
// on the links SendForward and SendBackward reserve.
type Msg struct {
	Kind     uint8
	FromHart uint8  // the sender's hart index on its core
	FromCore uint16 // the sender's core
	Tgt      uint32 // the target hart's global number
	Idx      uint32
	Val      uint32
	PC       uint32
}

// SendForward delivers a control message from core `from` to core `to`,
// where to == from or to == from+1 (the forward links only connect
// neighbors). The handler's Deliver runs at delivery time during a Step
// call.
func (s *System) SendForward(now uint64, from, to int, msg Msg) error {
	if to != from && to != from+1 {
		return fmt.Errorf("mem: forward message %d->%d is not neighbor-bound", from, to)
	}
	t := now + 1
	if to != from {
		t = s.alloc(&s.forward[from], now+uint64(s.cfg.HopLat), perf.LinkForward)
		if s.cfg.ChipOf(to) != s.cfg.ChipOf(from) {
			t += uint64(s.cfg.ChipHopLat) // neighbor link crosses the chip edge
		}
	}
	s.scheduleMsg(t, msg)
	return nil
}

// scheduleMsg queues msg's delivery for cycle t, its fields in the
// event's access fields.
func (s *System) scheduleMsg(t uint64, msg Msg) {
	e := s.schedule(t, evMessage)
	e.Hart, e.Core, e.Off, e.Addr, e.Val = msg.Tgt, int32(msg.FromCore), msg.Idx, msg.PC, msg.Val
	e.MsgKind, e.FromHart = msg.Kind, msg.FromHart
}

// message returns the control message an evMessage event carries.
func (e *event) message() Msg {
	return Msg{Kind: e.MsgKind, FromHart: e.FromHart, FromCore: uint16(e.Core),
		Tgt: e.Hart, Idx: e.Off, Val: e.Val, PC: e.Addr}
}

// backSerpentineMax is the largest machine whose backward line is the
// paper's flat serpentine walk, one link per intermediate core. The
// paper validates that line at its 64-core machine; the scaled design
// points beyond it segment the line per bottom-level router group and
// join the segments through per-level express links on the router
// hierarchy, so a machine-spanning join pays O(levels) hops instead of
// O(cores). Keeping the flat walk up to 64 cores preserves the paper
// configurations' timing bit-for-bit.
const backSerpentineMax = 64

// SendBackward delivers a message from core `from` to a prior core `to`
// (to <= from) over the backward line: the serpentine walk on machines
// up to backSerpentineMax cores or within one bottom-level group, the
// hierarchical express path otherwise.
func (s *System) SendBackward(now uint64, from, to int, msg Msg) error {
	if to > from {
		return fmt.Errorf("mem: backward message %d->%d goes forward in core order", from, to)
	}
	var t uint64
	switch {
	case to == from:
		t = now + 1
	case s.cfg.Cores <= backSerpentineMax || from/s.cfg.RouterDegree == to/s.cfg.RouterDegree:
		t = now
		for c := from; c > to; c-- {
			t = s.alloc(&s.backward[c], t+uint64(s.cfg.HopLat), perf.LinkBackward)
			if s.cfg.ChipOf(c) != s.cfg.ChipOf(c-1) {
				t += uint64(s.cfg.ChipHopLat)
			}
		}
	default:
		t = s.backExpress(now, from, to)
	}
	s.scheduleMsg(t, msg)
	return nil
}

// backExpress routes a backward message hierarchically: serpentine hops
// to the low edge of the source's bottom-level group, express links up
// to the lowest common ancestor and down to the target's group (one
// per level, modeled like the request tree: HopLat plus contention on
// a one-slot-per-cycle link), then serpentine hops from the group's
// high edge down to the target. Chip-boundary crossings pay ChipHopLat
// once per boundary between the endpoints, as the flat walk did.
func (s *System) backExpress(now uint64, from, to int) uint64 {
	d := s.cfg.RouterDegree
	hop := uint64(s.cfg.HopLat)
	t := now
	for c := from; c > (from/d)*d; c-- {
		t = s.alloc(&s.backward[c], t+hop, perf.LinkBackward)
	}
	var fg, tg [maxTreeDepth]int32
	up := 0
	for gf, gt := from/d, to/d; gf != gt; gf, gt = gf/d, gt/d {
		fg[up], tg[up] = int32(gf), int32(gt)
		up++
	}
	for k := 0; k < up; k++ {
		t = s.alloc(&s.backUp[k][fg[k]], t+hop, perf.LinkBackward)
	}
	for k := up - 1; k >= 0; k-- {
		t = s.alloc(&s.backDown[k][tg[k]], t+hop, perf.LinkBackward)
	}
	top := (to/d)*d + d - 1
	if top > s.cfg.Cores-1 {
		top = s.cfg.Cores - 1
	}
	for c := top; c > to; c-- {
		t = s.alloc(&s.backward[c], t+hop, perf.LinkBackward)
	}
	if s.cfg.CoresPerChip > 0 {
		t += uint64(s.cfg.ChipHopLat) * uint64(s.cfg.ChipOf(from)-s.cfg.ChipOf(to))
	}
	return t
}
