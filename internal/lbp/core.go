package lbp

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/trace"
)

// core is one LBP core: a five-stage pipeline shared by four harts.
// Each stage handles at most one instruction per cycle, selecting among
// the harts with a rotating priority (deterministic round robin).
type core struct {
	m     *Machine
	idx   int
	harts [HartsPerCore]*hart
	busy  int // harts not in hartFree state (maintained by hart.setState)

	FetchRR, RenameRR, IssueRR, WbRR, CommitRR int

	// Candidate masks, one per stage: bit i is set while hart i might be
	// selectable by that stage. The paper's core holds these as ready
	// signals (Figures 10-12); here they spare a stage the walk over harts
	// that cannot act. One rule keeps them exact: only the stage itself
	// clears a hart's bit, and only where it has just seen — scanning the
	// hart, or acting on it — that the hart is ineligible for a reason no
	// clock can lift (nothing fetched to rename, nothing executing to
	// write back, ...); every event that can lift such a reason sets the
	// bit where it happens (DESIGN.md §11 has the table). A hart waiting on
	// a time gate or a compound condition (p_ret gating, p_syncm drain)
	// keeps its bit. A set bit promises nothing — the stage still
	// evaluates its full predicate — so over-setting is always exact:
	// Restore, where harts arrive mid-flight, just sets every bit.
	// New and Reset need nothing: they leave every hart free and empty,
	// where no predicate holds and so any mask is exact. The masks are
	// host-side hints, not simulated state: they are not checkpointed, and
	// a hart freeing itself may set the previous core's issue mask
	// mid-cycle without that being a cross-core effect.
	fetchC, renameC, issueC, wbC, commitC uint8

	perf *perf.CoreCounters // stage-occupancy counters (always counted)

	// Whole-run statistic counters folded into the totals by
	// Machine.result (fetches are perf.StageFetch's count).
	StatForks, StatSends uint64

	// idleFrom is the first cycle whose stall attribution this core's
	// harts have not yet received while the core is off Machine.active
	// (creditIdle pays the span in bulk); 0 while the core is listed.
	idleFrom uint64
}

// stepCompute advances the core by one cycle (phase A). Stages run in
// reverse pipeline order so that a stage's output is consumed by the
// next stage one cycle later at the earliest. Of the rest of the machine
// it mutates only the progress stamp, the memory system (submissions and
// messages, in core order), the halt state and, through a p_fn, phase B's
// list (phase.go). It reports whether any stage did work. Every stage is
// a no-op on an empty candidate mask, so a stage is called only when its
// mask has a bit set, and each reports whether it acted — exactly when
// it adds one to its perf.StageBusy counter.
func (c *core) stepCompute(now uint64) bool {
	act := false
	if c.commitC != 0 && c.commit(now) {
		act = true
	}
	if c.wbC != 0 && c.writeback(now) {
		act = true
	}
	if c.issueC != 0 && c.issue(now) {
		act = true
	}
	if c.renameC != 0 && c.rename(now) {
		act = true
	}
	if c.fetchC != 0 && c.fetch(now) {
		act = true
	}
	return act
}

// faultf raises a fault of this core's hart hartIdx (Machine.faultf).
func (c *core) faultf(hartIdx int, format string, args ...any) {
	c.m.faultf(c.idx, hartIdx, format, args...)
}

// Each stage scans its candidate harts with rotating priority
// (deterministic round robin) and takes the first eligible one, updating
// the rotation pointer. The selection loops are written out per stage,
// without predicate closures, to keep the per-cycle hot path free of
// function values and allocations. The predicates, with the walk over
// all four harts the masks replaced, are kept as the reference in
// stage_ref_test.go.

// allHarts is a candidate mask with every hart's bit set.
const allHarts = 1<<HartsPerCore - 1

// scanOrder rotates a candidate mask into the stage's priority order for
// this cycle: bit i of the result is hart (rr+1+i)%HartsPerCore, so the
// lowest set bit is the first candidate after the last selected hart.
func scanOrder(mask uint8, rr int) uint8 {
	s := uint(rr+1) % HartsPerCore
	return (mask>>s | mask<<(HartsPerCore-s)) & allHarts
}

// scanHart returns the hart the lowest set bit of a scanOrder mask
// stands for. The index is unsigned and masked, so it needs no signed
// modulo and no bounds check.
func (c *core) scanHart(order uint8, rr int) *hart {
	return c.harts[(uint(rr)+1+uint(bits.TrailingZeros8(order)))&(HartsPerCore-1)]
}

// ---- fetch stage ----------------------------------------------------

// fetch selects a hart whose pc is known and fetches one instruction into
// the decode buffer. A hart is suspended after every fetch until the next
// pc is produced (at rename for sequential flow and direct jumps, at
// execution for branches and indirect jumps) — the paper hides this
// latency with multithreading instead of prediction. A fetch fault
// counts as the stage's work for the cycle.
func (c *core) fetch(now uint64) bool {
	var h *hart
	for o := scanOrder(c.fetchC, c.FetchRR); o != 0; o &= o - 1 {
		cand := c.scanHart(o, c.FetchRR)
		if cand.State != hartRunning || !cand.PCValid || cand.HasIB {
			c.fetchC &^= cand.bit
			continue
		}
		if cand.PCReady > now || (cand.SyncmWait && cand.InflightMem > 0) {
			continue
		}
		h = cand
		c.FetchRR = cand.idx
		break
	}
	if h == nil {
		return false
	}
	c.perf.StageBusy[perf.StageFetch]++
	h.SyncmWait = false
	d := c.m.descAt(h.PC)
	if d == nil {
		c.faultf(h.idx, "instruction fetch from unmapped pc %#x", h.PC)
		return true
	}
	if d.Inst.Op == isa.OpInvalid {
		c.faultf(h.idx, "invalid instruction %#08x at pc %#x", d.Inst.Raw, h.PC)
		return true
	}
	h.IB = uop{d: d, PC: h.PC}
	h.HasIB = true
	h.PCValid = false
	c.fetchC &^= h.bit
	c.renameC |= h.bit
	c.m.event(trace.KindFetch, c.idx, h.idx, uint64(h.IB.PC))
	return true
}

// ---- decode/rename stage ---------------------------------------------

// rename moves the decode-buffer instruction into the instruction table
// and reorder buffer, records its source dependencies and produces the
// next pc when it is knowable at decode. The descriptor is its recipe:
// which sources to look up (never x0), whether the result buffer is
// needed and how the next pc comes (isa.DescOf).
func (c *core) rename(now uint64) bool {
	var h *hart
	for o := scanOrder(c.renameC, c.RenameRR); o != 0; o &= o - 1 {
		cand := c.scanHart(o, c.RenameRR)
		if !cand.HasIB || cand.itFull(&c.m.cfg) || cand.robFull(&c.m.cfg) {
			c.renameC &^= cand.bit
			continue
		}
		h = cand
		c.RenameRR = cand.idx
		break
	}
	if h == nil {
		return false
	}
	c.perf.StageBusy[perf.StageRename]++
	s := h.robPush()
	u := &h.Rob[s]
	*u = h.IB
	h.HasIB = false
	c.renameC &^= h.bit
	d := u.d
	in := &d.Inst

	u.slot = uint8(s)
	u.Dep1, u.Dep2 = noSlot, noSlot
	if d.ReadsRs1() {
		if u.Dep1 = h.LastWriter[in.Rs1]; u.Dep1 == noSlot {
			u.Src1 = h.Regs[in.Rs1]
		}
	}
	if d.ReadsRs2() {
		if u.Dep2 = h.LastWriter[in.Rs2]; u.Dep2 == noSlot {
			u.Src2 = h.Regs[in.Rs2]
		}
	}
	u.isRet = d.IsPRet()
	u.needsRB = d.NeedsRB()
	if d.WritesRd() {
		h.LastWriter[in.Rd] = u.slot
	}
	h.IT |= 1 << s
	if u.ready() {
		c.issueC |= h.bit // else the producer's write back wakes it
	}

	// Next-pc production (Figure 10: nextPC leaves the decode stage).
	switch d.Next {
	case isa.NextSeq:
		h.PC = u.PC + 4
	case isa.NextTarget:
		h.PC = u.PC + uint32(in.Imm)
	case isa.NextSyncm:
		h.PC = u.PC + 4
		h.SyncmWait = true
	default:
		// NextExecute: resolved at execution, fetch stays suspended;
		// NextStop: execution terminates at commit, fetch stops here.
		return true
	}
	h.PCValid = true
	h.PCReady = now + 1
	c.fetchC |= h.bit
	return true
}

// ---- issue stage -----------------------------------------------------

// issue selects one ready instruction (oldest first within the selected
// hart) and begins its execution.
func (c *core) issue(now uint64) bool {
	var ih *hart
	is := -1
	for o := scanOrder(c.issueC, c.IssueRR); o != 0; o &= o - 1 {
		h := c.scanHart(o, c.IssueRR)
		if is = c.issuable(h); is >= 0 {
			ih = h
			break
		}
		c.issueC &^= h.bit
	}
	if ih == nil {
		return false
	}
	c.IssueRR = ih.idx
	c.perf.StageBusy[perf.StageIssue]++
	iu := &ih.Rob[is]
	c.execute(ih, iu, now)
	// Hand-offs: the instruction left the table (rename may have been
	// blocked on it), a branch or indirect jump produced its pc, and the
	// instruction either completed on the spot or occupies the result
	// buffer until write back — a load only once its response is in
	// (Machine.LoadDone).
	if ih.IT == 0 {
		c.issueC &^= ih.bit
	}
	if ih.HasIB {
		c.renameC |= ih.bit
	}
	if ih.PCValid {
		c.fetchC |= ih.bit
	}
	if iu.Done {
		if ih.RobHead == is {
			c.commitC |= ih.bit
		}
	} else if !iu.MemWait {
		c.wbC |= ih.bit
	}
	return true
}

// issuable returns the slot of the oldest instruction of h that can
// issue this cycle, or -1. The table's entries are walked in age order:
// ring order from the head, the slots at and above RobHead, then the
// ones below it.
func (c *core) issuable(h *hart) int {
	below := uint64(1)<<h.RobHead - 1
	for _, part := range [2]uint64{h.IT &^ below, h.IT & below} {
		for ; part != 0; part &= part - 1 {
			s := bits.TrailingZeros64(part)
			if u := &h.Rob[s]; u.ready() && c.canIssue(h, u) {
				return s
			}
		}
	}
	return -1
}

func (c *core) canIssue(h *hart, u *uop) bool {
	if u.needsRB && h.Exec != noSlot {
		return false
	}
	d := u.d
	if c.m.cfg.StrictMemOrder && (d.Cls == isa.ClassLoad || d.Cls == isa.ClassStore) {
		// Memory operations leave the instruction table in program order
		// (standing in for compiler-inserted p_syncm; see DESIGN.md).
		older := h.itAge() & (1<<h.robAge(int(u.slot)) - 1)
		for ; older != 0; older &= older - 1 {
			oc := h.Rob[h.robSlot(bits.TrailingZeros64(older))].d.Cls
			if oc == isa.ClassLoad || oc == isa.ClassStore {
				return false
			}
		}
	}
	switch d.Inst.Op {
	case isa.OpPLWRE:
		// A buffer the hart does not have never fills — no event could
		// ever make the instruction a candidate again — so that is a
		// program fault, raised at execute, not a wait.
		idx := int(d.Inst.Imm)
		return idx < 0 || idx >= len(h.Remote) || len(h.Remote[idx].Vals) > 0
	case isa.OpPFC:
		return c.freeHart() != nil
	case isa.OpPFN:
		// A p_fn past the last core is a machine fault, raised at execute.
		if c.idx+1 >= len(c.m.cores) {
			return true
		}
		// Cross-core state is read as of the cycle boundary, and the live
		// count is that value: busy changes only in a core's own phase-A
		// step (execPFC, doRet), in phase B (applyLate) and outside the
		// cycle loop (LoadProgram, Reset, Restore) — Mem.Step deliveries
		// (ctlStart, ctlJoin) never cross the free/non-free line — and
		// this core steps before the next one, so nothing has touched the
		// neighbor's count since the last cycle ended. The allocation
		// itself resolves in phase B.
		return c.m.cores[c.idx+1].busy < HartsPerCore
	}
	return true
}

// execute performs the semantics of an issued instruction: one indexed
// call through the descriptor dispatch table (exec.go).
func (c *core) execute(h *hart, u *uop, now uint64) {
	u.Issued = true
	h.IT &^= 1 << u.slot
	execTab[u.d.Inst.Op](c, h, u, now)
}

func (c *core) startExec(h *hart, u *uop, readyAt uint64) {
	h.Exec = u.slot
	h.ExecReadyAt = readyAt
}

func execJAL(c *core, h *hart, u *uop, now uint64) {
	// target pc was produced at rename
	u.Value = u.PC + 4
	c.startExec(h, u, now+c.m.latTab[isa.ClassALU])
}

func execJALR(c *core, h *hart, u *uop, now uint64) {
	u.Value = u.PC + 4
	h.PC = (u.Src1 + uint32(u.d.Inst.Imm)) &^ 1
	h.PCValid = true
	h.PCReady = now + 1
	c.startExec(h, u, now+c.m.latTab[isa.ClassALU])
}

func execPJAL(c *core, h *hart, u *uop, now uint64) {
	// local target pc was produced at rename; start the continuation
	// on the designated hart.
	u.Value = 0 // "clear rd"
	c.send(h, u, mem.Msg{Kind: ctlStart, Tgt: resolveLink(u.Src1), PC: u.PC + 4})
	c.startExec(h, u, now+c.m.latTab[isa.ClassALU])
}

func execPJALR(c *core, h *hart, u *uop, now uint64) {
	if u.isRet {
		u.Done = true // ending actions run at commit, in order
		return
	}
	u.Value = 0
	h.PC = u.Src2 &^ 1
	h.PCValid = true
	h.PCReady = now + 1
	c.send(h, u, mem.Msg{Kind: ctlStart, Tgt: resolveLink(u.Src1), PC: u.PC + 4})
	c.startExec(h, u, now+c.m.latTab[isa.ClassALU])
}

func (c *core) execLoad(h *hart, u *uop, now uint64) {
	d := u.d
	addr := u.Src1 + uint32(d.Inst.Imm)
	if addr%uint32(d.MemW) != 0 {
		c.faultf(h.idx, "misaligned load of width %d at %#x (pc %#x)", d.MemW, addr, u.PC)
		return
	}
	u.MemWait = true
	c.startExec(h, u, ^uint64(0))
	h.InflightMem++
	if !c.m.Mem.DataMapped(addr) {
		c.faultf(h.idx, "load from unmapped address %#x (pc %#x)", addr, u.PC)
		return
	}
	c.m.Mem.SubmitLoad(now, c.idx, addr, mem.Width(d.MemW), d.MemSigned(), h.gid)
}

func (c *core) execStore(h *hart, u *uop, now uint64) {
	d := u.d
	addr := u.Src1 + uint32(d.Inst.Imm)
	if addr%uint32(d.MemW) != 0 {
		c.faultf(h.idx, "misaligned store of width %d at %#x (pc %#x)", d.MemW, addr, u.PC)
		return
	}
	h.InflightMem++
	if !c.m.Mem.DataMapped(addr) {
		c.faultf(h.idx, "store to unmapped address %#x (pc %#x)", addr, u.PC)
		return
	}
	c.m.Mem.SubmitStore(now, c.idx, addr, u.Src2, mem.Width(d.MemW), h.gid)
	u.Done = true
}

// ---- write back stage -------------------------------------------------

// writeback retires one completed execution per cycle: the result buffer
// value is written to the register file and dependents are woken.
func (c *core) writeback(now uint64) bool {
	var h *hart
	for o := scanOrder(c.wbC, c.WbRR); o != 0; o &= o - 1 {
		cand := c.scanHart(o, c.WbRR)
		if cand.Exec == noSlot || cand.Rob[cand.Exec].MemWait {
			c.wbC &^= cand.bit
			continue
		}
		if cand.ExecReadyAt > now {
			continue
		}
		h = cand
		c.WbRR = cand.idx
		break
	}
	if h == nil {
		return false
	}
	c.perf.StageBusy[perf.StageWriteback]++
	s := h.Exec
	u := &h.Rob[s]
	h.Exec = noSlot
	// The result buffer is free and dependents have their operand (issue);
	// u is complete (commit).
	c.wbC &^= h.bit
	if h.IT != 0 {
		c.issueC |= h.bit
	}
	if h.RobHead == int(s) {
		c.commitC |= h.bit
	}
	if u.d.WritesRd() {
		rd := u.d.Inst.Rd
		if h.LastWriter[rd] == s {
			h.LastWriter[rd] = noSlot
			h.Regs[rd] = u.Value
		}
		h.wake(s, u.Value)
	}
	u.Done = true
	return true
}

// ---- commit stage ------------------------------------------------------

// commit retires one instruction per cycle in per-hart program order.
// p_ret commits only once the ending-hart signal from the predecessor has
// been received and the hart's memory accesses have drained — this is the
// hardware barrier between a parallel section and its sequel.
func (c *core) commit(now uint64) bool {
	var h *hart
	for o := scanOrder(c.commitC, c.CommitRR); o != 0; o &= o - 1 {
		cand := c.scanHart(o, c.CommitRR)
		if cand.RobN == 0 || !cand.robFront().Done {
			c.commitC &^= cand.bit
			continue
		}
		if u := cand.robFront(); u.isRet {
			if (cand.HasPred && !cand.PredSignal) || cand.InflightMem > 0 || cand.Exec != noSlot {
				continue
			}
		}
		h = cand
		c.CommitRR = cand.idx
		break
	}
	if h == nil {
		return false
	}
	u := h.robPopFront()
	if h.RobN == 0 || !h.robFront().Done {
		c.commitC &^= h.bit
	}
	if h.HasIB {
		c.renameC |= h.bit // a reorder-buffer slot came free
	}
	h.LastCommit = now
	h.perf.Commits++
	h.perf.Retired[u.d.Cls]++
	c.perf.StageBusy[perf.StageCommit]++
	c.m.progress = now
	c.m.event(trace.KindCommit, c.idx, h.idx, uint64(u.PC))
	switch {
	case u.isRet:
		c.doRet(h, u, now)
	case u.d.Inst.Op == isa.OpECALL || u.d.Inst.Op == isa.OpEBREAK:
		c.m.halt(u.d.Inst.Op.String())
	}
	return true
}
