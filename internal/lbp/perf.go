package lbp

import (
	"repro/internal/isa"
	"repro/internal/perf"
)

// Deterministic profiling. The pipeline stages maintain stage-occupancy,
// commit and retired-mix counters unconditionally (plain increments,
// no timing feedback); EnableProfiling additionally turns on the
// per-cycle stall-attribution walk, which classifies every hart-cycle
// that did not commit into exactly one perf.StallCause. The accounting is
// therefore exact: CommitCycles + sum(StallCycles) == Cycles * NumHarts.
//
// The walk visits the harts of the active cores only. A core off the
// active list has four free harts, each owed one hart-free cycle per
// cycle; that span is counted from the core's idleFrom stamp and paid in
// bulk when the core is listed again or the counters are read — the same
// real counting fastForward does for a skipped span, so the accounting
// identity stays an independent check.

// EnableProfiling turns on per-cycle stall attribution. It must be called
// before Run; profiling never changes a run's cycle count, results or
// event-trace digest.
func (m *Machine) EnableProfiling() { m.profiling = true }

// Profiling reports whether stall attribution is enabled.
func (m *Machine) Profiling() bool { return m.profiling }

// PerfSnapshot aggregates the counters of a (finished or running) run.
// It returns nil unless EnableProfiling was called — without the per-cycle
// walk the stall attribution would be empty and the snapshot misleading.
func (m *Machine) PerfSnapshot() *perf.Snapshot {
	if !m.profiling {
		return nil
	}
	m.flushIdle()
	return perf.Build(m.cycle, HartsPerCore, m.hperf, m.cperf, &m.Mem.Perf)
}

// profTick attributes the current cycle of every hart of an active core
// (free harts included — an idle machine is itself a finding; those of
// idle cores are paid by creditIdle) to a stall cause. It runs after the
// pipeline stages, so a hart whose commit stage retired an instruction
// this cycle is counted as committing, not stalled.
func (m *Machine) profTick(now uint64) {
	for _, c := range m.active {
		for _, h := range c.harts {
			if h.LastCommit == now {
				continue // counted by Commits at the commit stage
			}
			h.perf.Stalls[classifyStall(h)]++
		}
	}
}

// creditIdle pays the harts of a core that is off the active list the
// hart-free cycles [c.idleFrom, upto) and restarts the span at upto. A
// core that left the list in cycle t did so before t's tick, so its span
// starts at t — where the hart whose p_ret emptied the core is already
// counted as committing.
func (m *Machine) creditIdle(c *core, upto uint64) {
	if !m.profiling || c.idleFrom == 0 {
		return
	}
	for _, h := range c.harts {
		n := upto - c.idleFrom
		if h.LastCommit == c.idleFrom {
			n--
		}
		h.perf.Stalls[perf.StallHartFree] += n
	}
	c.idleFrom = upto
}

// flushIdle settles every idle core's span through the current cycle, so
// the hart counters read as if each hart had been walked every cycle.
func (m *Machine) flushIdle() {
	if !m.profiling {
		return
	}
	for _, c := range m.cores {
		m.creditIdle(c, m.cycle+1)
	}
}

// classifyStall names the reason a hart did not commit this cycle. The
// priority order mirrors the pipeline's own gating: lifecycle states
// first, then the oldest in-flight instruction's blockers, then the
// fetch-side conditions for an empty pipeline.
func classifyStall(h *hart) perf.StallCause {
	switch h.State {
	case hartFree:
		return perf.StallHartFree
	case hartAllocated:
		// fork issued, start pc still in flight on the forward link
		return perf.StallFork
	case hartWaitJoin:
		return perf.StallJoin
	}
	if h.Exec != noSlot && h.Rob[h.Exec].MemWait {
		return perf.StallMem
	}
	if h.RobN > 0 {
		u := h.robFront()
		switch {
		case u.Done:
			if u.isRet {
				// p_ret commit gating (the hardware barrier)
				if h.HasPred && !h.PredSignal {
					return perf.StallJoin
				}
				if h.InflightMem > 0 {
					return perf.StallMem
				}
			}
			// completed, waiting for the commit slot
			return perf.StallPipeline
		case !u.Issued:
			if !u.ready() {
				return perf.StallOperand
			}
			switch u.d.Inst.Op {
			case isa.OpPFC, isa.OpPFN:
				return perf.StallFork // no free hart to fork onto
			case isa.OpPLWRE:
				return perf.StallOperand // p_swre result not yet arrived
			}
			if u.needsRB && h.Exec != noSlot {
				return perf.StallPipeline // 1-deep result buffer occupied
			}
			if u.d.Cls == isa.ClassLoad || u.d.Cls == isa.ClassStore {
				// held by the per-hart memory issue order
				return perf.StallMem
			}
			return perf.StallPipeline // issue-slot contention
		default:
			// issued, executing (functional-unit latency)
			return perf.StallPipeline
		}
	}
	if h.HasIB {
		return perf.StallPipeline // waiting for the rename slot
	}
	if h.SyncmWait && h.InflightMem > 0 {
		return perf.StallMem
	}
	// pipeline empty: waiting for the next pc or the fetch slot
	return perf.StallFetch
}
