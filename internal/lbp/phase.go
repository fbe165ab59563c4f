package lbp

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Two-phase stepping. Each cycle the active cores step in core-index
// order on the calling goroutine (phase A). A core mutates only its own
// state and reads the rest of the machine as of the cycle boundary;
// every cross-core or machine-global effect — memory submissions,
// forward/backward control messages, faults and halts — goes through
// core.effect, which applies it on the spot: core order is already the
// order the machine defines for link-slot allocation, event scheduling
// and the trace digest.
//
// The one effect that cannot apply on the spot is p_fn's hart
// allocation on the next core: it mutates a neighbor that has not
// stepped yet this cycle, and cross-core effects become visible at the
// cycle boundary, never mid-cycle (DESIGN.md §"Two-phase stepping").
// So a p_fn defers to the end of the cycle, and from that point every
// later effect and trace event of the cycle defers behind it — first
// fault wins and memory submissions stay FIFO — into per-core pending
// streams that phase B replays in core-index order.

// pendKind tags one entry of a core's pending stream.
type pendKind uint8

const (
	pendLoad     pendKind = iota // mem.SubmitLoad
	pendStore                    // mem.SubmitStore
	pendCV                       // mem.SubmitCVWrite
	pendMsg                      // control message over the forward link or the backward line
	pendForkNext                 // p_fn hart allocation on the next core
	pendFault                    // deterministic machine fault
	pendHalt                     // clean halt (exit, ebreak)
)

// pendItem is one effect. The fields are a small union: a/b carry
// (addr, value), t the target core, h/u the issuing hart and
// instruction when the apply step must write back into them. A pendMsg
// carries its message in ctl. For pendForkNext, a holds 1 + the core's
// evbuf index of the placeholder fork event (0 when tracing is off).
type pendItem struct {
	kind   pendKind
	w      mem.Width
	signed bool
	a, b   uint32
	t      uint32
	h      *hart
	u      *uop
	ctl    *ctlMsg
	msg    string
}

// emit records a trace event. Events fold straight into the recorder
// until a p_fn, whose fork event value only exists in phase B, defers
// the rest of the cycle: from there they go to the core's event buffer,
// which phase B drains in core order after the core's pending stream.
// Pending actions never reach the recorder at the current cycle (their
// callbacks fire during later Mem.Steps), so the drain reproduces the
// live emission order exactly.
func (c *core) emit(kind trace.Kind, hartIdx int, value uint64) {
	if !c.m.tracing {
		return
	}
	e := trace.Event{
		Cycle: c.m.cycle, Core: uint16(c.idx), Hart: uint8(hartIdx),
		Kind: kind, Value: value,
	}
	if c.m.deferred {
		c.evbuf = append(c.evbuf, e)
		return
	}
	c.m.rec.Add(e)
}

// effect disposes of one cross-core or machine-global effect: applied
// immediately, or — once a p_fn has deferred the cycle (execPFN) —
// appended to the core's pending stream, so relative order within the
// cycle is preserved exactly.
func (c *core) effect(it pendItem) {
	if c.m.deferred {
		c.pend = append(c.pend, it)
		return
	}
	c.m.applyItem(c, &it, c.m.cycle)
}

// faultf raises a machine fault at its position in the cycle's effect
// order, so that the first fault in (core, stage) order wins. The
// message — identical to Machine.faultf's — is fully formatted here;
// the fault path is cold.
func (c *core) faultf(hartIdx int, format string, args ...any) {
	c.effect(pendItem{kind: pendFault, msg: fmt.Sprintf(
		"lbp: cycle %d core %d hart %d: %s",
		c.m.cycle, c.idx, hartIdx, fmt.Sprintf(format, args...))})
}

// deferHalt raises a clean halt (p_ret exit identity, ecall/ebreak).
func (c *core) deferHalt(msg string) {
	c.effect(pendItem{kind: pendHalt, msg: msg})
}

// applyDeferred is phase B: it replays the pending streams of the cores
// that stepped after the cycle's first p_fn — collected in m.lane, in
// ascending core order, during phase A.
func (m *Machine) applyDeferred(now uint64) {
	for _, c := range m.lane {
		for i := range c.pend {
			m.applyItem(c, &c.pend[i], now)
		}
		// Release pointers so pooled uops and harts are not pinned,
		// then reuse the backing array next cycle.
		clear(c.pend)
		c.pend = c.pend[:0]
		// Events drain after the actions so pendForkNext has patched its
		// placeholder; see the ordering argument on emit. evbuf is only
		// filled when tracing, which implies a recorder.
		if len(c.evbuf) > 0 {
			m.rec.AddBatch(c.evbuf)
			c.evbuf = c.evbuf[:0]
		}
	}
	m.lane = m.lane[:0]
}

// applyItem performs one effect.
func (m *Machine) applyItem(c *core, it *pendItem, now uint64) {
	switch it.kind {
	case pendLoad:
		// The hart's reusable load client was armed at issue (execLoad):
		// the 1-deep result buffer guarantees at most one load in flight
		// per hart, so the slot was necessarily idle there.
		m.Mem.SubmitLoad(now, c.idx, it.a, it.w, it.signed, &it.h.ldc)
	case pendStore:
		m.Mem.SubmitStore(now, c.idx, it.a, it.b, it.w, &it.h.stc)
	case pendCV:
		m.Mem.SubmitCVWrite(now, c.idx, int(it.t), it.a, it.b, &it.h.stc)
	case pendMsg:
		// The direction checks are mem-level invariants — core.send
		// already validated the target.
		var err error
		if it.ctl.Kind.backward() {
			err = m.Mem.SendBackward(now, c.idx, int(it.t), it.ctl)
		} else {
			err = m.Mem.SendForward(now, c.idx, int(it.t), it.ctl)
		}
		if err != nil {
			m.faultf(c.idx, it.h.idx, "%s: %v", ctlNames[it.ctl.Kind], err)
		}
	case pendForkNext:
		// p_fn: always replayed from phase B, after the target core's own
		// phase A; the result value is patched before the earliest cycle
		// writeback can read it.
		target := m.cores[c.idx+1]
		fh := target.freeHart()
		if fh == nil {
			// Drop the placeholder fork event: a failed fork emits none. At
			// most one p_fn executes per core per cycle, so no later item's
			// index shifts.
			if it.a != 0 {
				c.evbuf = append(c.evbuf[:it.a-1], c.evbuf[it.a:]...)
			}
			m.faultf(c.idx, it.h.idx, "fork allocation raced (pc %#x)", it.u.pc)
			return
		}
		fh.allocate(&m.cfg, it.h.gid, now)
		it.u.value = fh.gid
		m.stats.Forks++
		if it.a != 0 {
			c.evbuf[it.a-1].Value = uint64(fh.gid)
		}
	case pendFault:
		if m.err == nil {
			m.err = faultError(it.msg)
		}
		m.exited = true
	case pendHalt:
		m.halt(it.msg)
	}
}

// SetFastForward enables or disables idle-cycle fast-forward (on by
// default). Fast-forward never changes simulated cycle counts, stats,
// perf snapshots or digests; the switch exists for the equivalence
// tests and for timing-sensitive debugging.
func (m *Machine) SetFastForward(on bool) { m.fastFwd = on }

// ---- idle-cycle fast-forward ------------------------------------------

// Armed is an optional Device capability: NextArm returns the earliest
// future cycle at which the device will act on its own schedule (ok =
// false when it never will). Devices that only react to memory writes —
// which happen exclusively inside mem events — return (0, false).
// A device that does not implement Armed inhibits fast-forward entirely.
type Armed interface {
	NextArm(now uint64) (uint64, bool)
}

// nextWake computes the first cycle after now at which anything can
// happen: the earliest pending memory event, the earliest device arm
// time, or the earliest per-hart time gate (a produced pc becoming
// fetchable, a functional unit finishing). It is only meaningful on a
// cycle with zero pipeline activity — then every future state change is
// triggered by one of those three sources. Returns ok=false when a
// device without NextArm forbids skipping.
func (m *Machine) nextWake(now uint64) (uint64, bool) {
	const never = ^uint64(0)
	wake := never
	if ec, ok := m.Mem.NextEventCycle(); ok {
		wake = ec
	}
	for _, d := range m.devices {
		a, ok := d.(Armed)
		if !ok {
			return 0, false
		}
		if cyc, armed := a.NextArm(now); armed && cyc < wake {
			wake = cyc
		}
	}
	for _, c := range m.active {
		for _, h := range c.harts {
			if h.state != hartRunning {
				continue // allocated/waiting harts wake on queued messages
			}
			if h.pcValid && h.ib == nil && h.pcReadyCycle > now && h.pcReadyCycle < wake {
				wake = h.pcReadyCycle
			}
			if h.exec != nil && !h.exec.memWait && h.execReadyAt > now && h.execReadyAt < wake {
				wake = h.execReadyAt
			}
		}
	}
	return wake, true
}

// fastForward jumps the clock from a quiescent cycle `now` to just
// before the next cycle at which the machine can change state, bulk-
// crediting the skipped cycles to the stall-attribution counters so
// that attribution still sums to exactly 100% of hart-cycles. The jump
// is clamped so the Advance pause, the cycle-budget error and the
// livelock check all fire at exactly the cycle they would have under
// single-stepping.
func (m *Machine) fastForward(now, stop uint64) {
	wake, ok := m.nextWake(now)
	if !ok {
		return
	}
	target := wake
	if limit := stop + 1; target > limit {
		target = limit
	}
	if m.Mem.Drained() {
		// With no events in flight the livelock window is frozen; land on
		// the exact cycle the single-stepped run would have faulted at.
		if ll := m.progress + m.cfg.LivelockWindow + 1; target > ll {
			target = ll
		}
	}
	if target <= now+1 {
		return
	}
	skipped := target - now - 1
	if m.profiling {
		// classifyStall is a pure function of hart state, which is frozen
		// across the skipped span, so one classification per hart stands
		// for every skipped cycle. The harts of idle cores are paid from
		// their core's idleFrom stamp (creditIdle).
		for _, c := range m.active {
			for _, h := range c.harts {
				h.perf.Stalls[classifyStall(h)] += skipped
			}
		}
	}
	m.stats.FastForwarded += skipped
	m.cycle += skipped
}

// faultError is a preformatted core.faultf message as an error.
type faultError string

func (e faultError) Error() string { return string(e) }
