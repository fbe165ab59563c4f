package lbp

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// check holds the machine to the invariants every state a run reaches
// at a cycle boundary keeps; restore refuses a checkpoint whose machine
// breaks one, and the tests call it after every cycle (StepChecking).
// DESIGN.md §7 lists the rules. A fault stops the machine mid-instruction
// (an access to an unmapped address counts in InflightMem unsubmitted, a
// faulting instruction stays issued and not done), so a faulted machine,
// which never steps again, is not held to the three rules about work in
// flight: an issued, not done entry is the result buffer's, InflightMem
// counts the hart's in-flight accesses, and a load is in flight exactly
// while the result buffer waits on memory. What only re-simulation could
// check is not checked: the values, and the time gates and diagnostic
// fields beyond their not being ahead of the clock (a gate set far ahead
// stalls the hart until the livelock window faults the run).
func (m *Machine) check() error {
	if m.progress > m.cycle {
		return fmt.Errorf("progress stamp %d is past the clock", m.progress)
	}
	for _, c := range m.cores {
		for _, rr := range [...]int{c.FetchRR, c.RenameRR, c.IssueRR, c.WbRR, c.CommitRR} {
			// The stages index the core's harts from these.
			if rr < 0 || rr >= HartsPerCore {
				return fmt.Errorf("core %d has a round-robin pointer of %d", c.idx, rr)
			}
		}
	}
	for _, h := range m.harts {
		if err := m.checkHart(h); err != nil {
			return fmt.Errorf("hart %d: %w", h.gid, err)
		}
	}
	return m.checkEvents()
}

// checkHart holds one hart to check's rules.
func (m *Machine) checkHart(h *hart) error {
	cfg := &m.cfg
	if h.State > hartWaitJoin {
		return fmt.Errorf("unknown state %d", h.State)
	}
	if h.LastCommit > m.cycle || h.EndingEpoch > m.cycle {
		return fmt.Errorf("last commit at cycle %d and lifecycle change at %d, past the clock",
			h.LastCommit, h.EndingEpoch)
	}
	if len(h.Rob) != cfg.ROBEntries || len(h.Remote) != cfg.RemoteRBs {
		return fmt.Errorf("%d rob slots and %d result buffers, the configuration has %d and %d",
			len(h.Rob), len(h.Remote), cfg.ROBEntries, cfg.RemoteRBs)
	}
	for i := range h.Remote {
		if n := len(h.Remote[i].Vals); n > cfg.RBDepth {
			return fmt.Errorf("%d values in result buffer %d, depth is %d", n, i, cfg.RBDepth)
		}
	}
	if h.RobHead < 0 || h.RobHead >= len(h.Rob) || h.RobN < 0 || h.RobN > len(h.Rob) {
		return fmt.Errorf("rob head %d with %d entries in a %d-slot ring", h.RobHead, h.RobN, len(h.Rob))
	}
	if (h.State == hartFree || h.State == hartAllocated) &&
		(h.RobN != 0 || h.HasIB || h.PCValid || h.InflightMem != 0) {
		return fmt.Errorf("a free or allocated hart holds work: %d rob entries, fetch buffer %v, next pc %v, %d accesses",
			h.RobN, h.HasIB, h.PCValid, h.InflightMem)
	}
	if h.HasIB && !m.fetched(&h.IB) {
		return fmt.Errorf("the fetch buffer holds no instruction at pc %#x", h.IB.PC)
	}
	var live uint64
	for i := range h.RobN {
		live |= 1 << h.robSlot(i)
	}
	if h.IT&^live != 0 || bits.OnesCount64(h.IT) > cfg.ITEntries {
		return fmt.Errorf("instruction table %b names free slots (live %b) or more than %d entries",
			h.IT, live, cfg.ITEntries)
	}
	if h.Exec != noSlot && live&(1<<h.Exec) == 0 {
		return fmt.Errorf("the result buffer names free slot %d", h.Exec)
	}
	var youngest [32]int // each register's youngest live writer's slot+1
	for i := range h.RobN {
		s := h.robSlot(i)
		u := &h.Rob[s]
		if !m.fetched(u) {
			return fmt.Errorf("rob slot %d holds no instruction at pc %#x", s, u.PC)
		}
		if inIT := h.IT&(1<<s) != 0; inIT == u.Issued {
			return fmt.Errorf("rob slot %d is issued=%v, in the instruction table=%v", s, u.Issued, inIT)
		}
		if (u.Done && !u.Issued) || (u.Issued && !u.ready()) {
			return fmt.Errorf("rob slot %d is done=%v issued=%v with producers %d and %d",
				s, u.Done, u.Issued, u.Dep1, u.Dep2)
		}
		in := &u.d.Inst
		for _, dep := range [...]struct {
			slot  uint8
			reads bool
			reg   uint8
		}{{u.Dep1, u.d.ReadsRs1(), in.Rs1}, {u.Dep2, u.d.ReadsRs2(), in.Rs2}} {
			if dep.slot == noSlot {
				continue
			}
			if live&(1<<dep.slot) == 0 || h.robAge(int(dep.slot)) >= i {
				return fmt.Errorf("rob slot %d depends on slot %d, free or not older", s, dep.slot)
			}
			if p := &h.Rob[dep.slot]; !dep.reads || p.Done || !p.d.WritesRd() || p.d.Inst.Rd != dep.reg {
				return fmt.Errorf("rob slot %d waits on slot %d, which does not produce x%d", s, dep.slot, dep.reg)
			}
		}
		if u.MemWait && s != int(h.Exec) {
			return fmt.Errorf("rob slot %d waits on memory outside the result buffer", s)
		}
		if m.err == nil && u.Issued && !u.Done && s != int(h.Exec) {
			return fmt.Errorf("rob slot %d is issued and not done outside the result buffer", s)
		}
		if u.d.WritesRd() {
			youngest[in.Rd] = s + 1
		}
	}
	if h.Exec != noSlot {
		if u := &h.Rob[h.Exec]; !u.Issued || u.Done {
			return fmt.Errorf("the result buffer holds slot %d, issued=%v done=%v", h.Exec, u.Issued, u.Done)
		}
	}
	for r, y := range youngest {
		want := uint8(noSlot)
		if y > 0 && !h.Rob[y-1].Done {
			want = uint8(y - 1)
		}
		if h.LastWriter[r] != want {
			return fmt.Errorf("x%d's last writer is slot %d, its youngest in-flight writer is %d", r, h.LastWriter[r], want)
		}
	}
	return nil
}

// fetched reports whether u holds what fetch would have stored for its
// pc: the descriptor there, of a valid instruction.
func (m *Machine) fetched(u *uop) bool {
	d := m.descAt(u.PC)
	return d != nil && u.d == d && d.Inst.Op != isa.OpInvalid
}

// checkEvents holds the in-flight memory events to check's rules and to
// the harts' memory accounting.
func (m *Machine) checkEvents() error {
	acks := make([]int, len(m.harts))  // accesses each hart waits on
	loads := make([]int, len(m.harts)) // of which loads
	for i, e := range m.Mem.Events() {
		if e.Cycle <= m.cycle {
			return fmt.Errorf("event %d is due at cycle %d, not after the clock", i, e.Cycle)
		}
		if int(e.Hart) >= len(m.harts) {
			return fmt.Errorf("event %d names hart %d of %d", i, e.Hart, len(m.harts))
		}
		h := m.harts[e.Hart]
		switch {
		case e.IsMessage():
			if e.MsgKind > ctlSwre {
				return fmt.Errorf("event %d has unknown control-message kind %d", i, e.MsgKind)
			}
		case e.Load() && h.Exec == noSlot:
			// LoadDone writes the value into the result buffer's entry.
			return fmt.Errorf("event %d is a load of hart %d, whose result buffer is empty", i, e.Hart)
		}
		if e.Acks() {
			acks[e.Hart]++
			if e.Load() {
				loads[e.Hart]++
			}
		}
	}
	for _, h := range m.harts {
		waits := h.Exec != noSlot && h.Rob[h.Exec].MemWait
		if h.LoadVal != 0 && loads[h.gid] == 0 {
			return fmt.Errorf("hart %d parks a load value with no load in flight", h.gid)
		}
		if m.err != nil {
			continue
		}
		if h.InflightMem != acks[h.gid] {
			return fmt.Errorf("hart %d counts %d memory accesses in flight, %d are", h.gid, h.InflightMem, acks[h.gid])
		}
		if loads[h.gid] > 1 || waits != (loads[h.gid] == 1) {
			return fmt.Errorf("hart %d has %d loads in flight, its result buffer waiting on memory=%v",
				h.gid, loads[h.gid], waits)
		}
	}
	return nil
}
