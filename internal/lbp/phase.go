package lbp

import "slices"

// Two-phase stepping. Each cycle the active cores step in core-index
// order on the calling goroutine (phase A). A core mutates only its own
// state and reads the rest of the machine as of the cycle boundary;
// its cross-core and machine-global effects — memory submissions,
// forward/backward control messages, halts — apply on the spot: core
// order is already the order the machine defines for link-slot
// allocation, event scheduling and the trace digest, and nothing phase A
// reads of the memory system (the pure DataMapped/LocalMapped maps)
// changes with them.
//
// The one effect that cannot apply on the spot is p_fn's hart
// allocation on the next core: it mutates a neighbor that has not
// stepped yet this cycle, and cross-core effects become visible at the
// cycle boundary, never mid-cycle (DESIGN.md §"Two-phase stepping").
// So a p_fn queues its allocation on Machine.late, phase B. Two things
// are ordered against it and queue behind it for the rest of the cycle:
// faults, because a fork that finds no free hart faults and the first
// fault wins, and trace events, because the fork event's value (the new
// hart) only exists in phase B.

// lateItem is one entry of phase B: a p_fn hart allocation (h != nil),
// or a fault raised after the cycle's first p_fn.
type lateItem struct {
	h    *hart // forking hart
	slot uint8 // the p_fn's ROB slot on h
	ev   int   // index of the fork's placeholder event in lateEvents (when tracing)
	err  error // the fault
}

// applyLate is phase B: it applies the allocations and faults phase A
// queued, in their order, then records the trace events that waited
// behind them. It takes the list first, so a fault it raises applies on
// the spot.
func (m *Machine) applyLate(now uint64) {
	late := m.late
	m.late = nil
	dropped := 0 // placeholders of failed forks removed from lateEvents so far
	for _, it := range late {
		if it.h == nil {
			m.fail(it.err)
			continue
		}
		c, u := it.h.core, &it.h.Rob[it.slot]
		ev := it.ev - dropped
		fh := m.cores[c.idx+1].freeHart()
		if fh == nil {
			// A failed fork emits no event: drop its placeholder.
			if m.tracing {
				m.lateEvents = slices.Delete(m.lateEvents, ev, ev+1)
				dropped++
			}
			m.faultf(c.idx, it.h.idx, "fork allocation raced (pc %#x)", u.PC)
			continue
		}
		fh.allocate(&m.cfg, it.h.gid, now)
		u.Value = fh.gid // before the earliest writeback can read it
		m.stats.Forks++
		if m.tracing {
			m.lateEvents[ev].Value = uint64(fh.gid)
		}
	}
	// Release the items' harts and errors, then reuse the backing array
	// next cycle.
	clear(late)
	m.late = late[:0]
	if len(m.lateEvents) > 0 {
		m.rec.AddBatch(m.lateEvents)
		m.lateEvents = m.lateEvents[:0]
	}
}

// SetFastForward enables or disables idle-cycle fast-forward (on by
// default). Fast-forward never changes simulated cycle counts, stats,
// perf snapshots or digests; the switch exists for the equivalence
// tests and for timing-sensitive debugging.
func (m *Machine) SetFastForward(on bool) { m.fastFwd = on }

// ---- idle-cycle fast-forward ------------------------------------------

// nextWake computes the first cycle after now at which anything can
// happen: the earliest pending memory event, the earliest device arm
// time, or the earliest per-hart time gate (a produced pc becoming
// fetchable, a functional unit finishing). It is only meaningful on a
// cycle with zero pipeline activity — then every future state change is
// triggered by one of those three sources.
func (m *Machine) nextWake(now uint64) uint64 {
	const never = ^uint64(0)
	wake := never
	if ec, ok := m.Mem.NextEventCycle(); ok {
		wake = ec
	}
	for _, d := range m.devices {
		if cyc, armed := d.NextArm(now); armed && cyc < wake {
			wake = cyc
		}
	}
	for _, c := range m.active {
		for _, h := range c.harts {
			if h.State != hartRunning {
				continue // allocated/waiting harts wake on queued messages
			}
			if h.PCValid && !h.HasIB && h.PCReady > now && h.PCReady < wake {
				wake = h.PCReady
			}
			if h.Exec != noSlot && !h.Rob[h.Exec].MemWait && h.ExecReadyAt > now && h.ExecReadyAt < wake {
				wake = h.ExecReadyAt
			}
		}
	}
	return wake
}

// fastForward jumps the clock from a quiescent cycle `now` to just
// before the next cycle at which the machine can change state, bulk-
// crediting the skipped cycles to the stall-attribution counters so
// that attribution still sums to exactly 100% of hart-cycles. The jump
// is clamped so the Advance pause, the cycle-budget error and the
// livelock check all fire at exactly the cycle they would have under
// single-stepping.
func (m *Machine) fastForward(now, stop uint64) {
	target := m.nextWake(now)
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

// faultError is a formatted machine fault as an error.
type faultError string

func (e faultError) Error() string { return string(e) }
