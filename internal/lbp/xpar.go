package lbp

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// X_PAR semantics: hart allocation (p_fc/p_fn), identity manipulation
// (p_set/p_merge), continuation-value transmission (p_swcv), inter-team
// result transmission (p_swre/p_lwre), and the p_ret ending protocol with
// its four ending types (Figure 6 of the paper). Each instruction is its
// own execTab entry (exec.go).

// resolveLink extracts the hart designated for forward-direction actions
// (fork continuation, continuation values): the link field of an identity
// word, or the raw hart number as returned by p_fc/p_fn.
func resolveLink(v uint32) uint32 {
	if v&isa.HartIDValid != 0 {
		return isa.LinkHart(v)
	}
	return v
}

// resolveHome extracts the hart designated for backward-direction actions
// (p_swre result sends): the home field of an identity word, or the raw
// hart number.
func resolveHome(v uint32) uint32 {
	if v&isa.HartIDValid != 0 {
		return isa.HomeHart(v)
	}
	return v
}

// freeHart returns the lowest-numbered free hart of the core, or nil.
func (c *core) freeHart() *hart {
	return c.freeHartAfter(-1)
}

// freeHartAfter returns the first free hart with index > after, wrapping
// to the lowest free hart if none. Allocating "after" the forking hart
// keeps team placement canonical (member t on hart t%4 of core t/4) even
// when earlier members have already ended and freed their harts.
func (c *core) freeHartAfter(after int) *hart {
	for i := after + 1; i < HartsPerCore; i++ {
		if c.harts[i].State == hartFree {
			return c.harts[i]
		}
	}
	for i := 0; i <= after && i < HartsPerCore; i++ {
		if c.harts[i].State == hartFree {
			return c.harts[i]
		}
	}
	return nil
}

// execPFC performs a same-core fork: the allocation is core-local, so it
// happens on the spot like every other own-state mutation.
func (c *core) execPFC(h *hart, u *uop, now uint64) {
	fh := c.freeHartAfter(h.idx)
	if fh == nil {
		// canIssue guarantees availability
		c.faultf(h.idx, "fork allocation raced (pc %#x)", u.PC)
		return
	}
	fh.allocate(&c.m.cfg, h.gid, now)
	u.Value = fh.gid
	c.StatForks++
	c.m.event(trace.KindFork, c.idx, h.idx, uint64(fh.gid))
	c.startExec(h, u, now+c.m.latTab[isa.ClassALU])
}

// execPFN performs a next-core fork: the allocation mutates the neighbor,
// so it waits for phase B, which resolves the free hart after the
// neighbor's own step and patches u.value (named by its ROB slot) before
// writeback can read it.
// The cycle's later faults and trace events wait behind it (phase.go).
// The fork event's value (the new gid) is unknown until then, so a
// placeholder holds the event's position in the buffer.
func (c *core) execPFN(h *hart, u *uop, now uint64) {
	m := c.m
	if c.idx+1 >= len(m.cores) {
		c.faultf(h.idx, "p_fn past the last core (pc %#x)", u.PC)
		return
	}
	m.late = append(m.late, lateItem{h: h, slot: u.slot, ev: len(m.lateEvents)})
	m.event(trace.KindFork, c.idx, h.idx, 0)
	c.startExec(h, u, now+m.latTab[isa.ClassALU])
}

func execPSET(c *core, h *hart, u *uop, now uint64) {
	u.Value = isa.PSet(u.Src1, h.gid)
	c.startExec(h, u, now+c.m.latTab[isa.ClassALU])
}

func execPMERGE(c *core, h *hart, u *uop, now uint64) {
	u.Value = isa.PMerge(u.Src1, u.Src2)
	c.startExec(h, u, now+c.m.latTab[isa.ClassALU])
}

func (c *core) execPLWRE(h *hart, u *uop, now uint64) {
	idx := int(u.d.Inst.Imm)
	if idx < 0 || idx >= len(h.Remote) {
		c.faultf(h.idx, "p_lwre from nonexistent result buffer %d (pc %#x)", idx, u.PC)
		return
	}
	v, ok := h.popRemote(idx)
	if !ok {
		// canIssue guarantees a value
		c.faultf(h.idx, "p_lwre from empty result buffer %d (pc %#x)", idx, u.PC)
		return
	}
	u.Value = v
	c.m.event(trace.KindRecv, c.idx, h.idx, uint64(v))
	c.startExec(h, u, now+c.m.latTab[isa.ClassALU])
}

// execSwcv stores a continuation value on the stack of the designated
// hart (same or next core), through the forward link and the target
// core's local bank port.
func (c *core) execSwcv(h *hart, u *uop, now uint64) {
	tgt := resolveLink(u.Src1)
	th := c.m.Hart(tgt)
	if th == nil {
		c.faultf(h.idx, "p_swcv to nonexistent hart %d (pc %#x)", tgt, u.PC)
		return
	}
	tc := th.core.idx
	if tc != c.idx && tc != c.idx+1 {
		c.faultf(h.idx, "p_swcv target hart %d is not on the same or next core (pc %#x)", tgt, u.PC)
		return
	}
	addr := c.m.cfg.SPInit(th.idx) + uint32(u.d.Inst.Imm)
	h.InflightMem++
	if !c.m.Mem.LocalMapped(addr) {
		c.faultf(h.idx, "p_swcv to unmapped stack address %#x (pc %#x)", addr, u.PC)
		return
	}
	c.m.Mem.SubmitCVWrite(now, c.idx, tc, addr, u.Src2, h.gid)
	u.Done = true
}

// execSwre sends a result value to a prior hart's result buffer over the
// backward line.
func (c *core) execSwre(h *hart, u *uop, now uint64) {
	if !c.send(h, u, mem.Msg{Kind: ctlSwre, Tgt: resolveHome(u.Src1),
		Idx: uint32(u.d.Inst.Imm), Val: u.Src2, PC: u.PC}) {
		return
	}
	c.StatSends++
	c.m.event(trace.KindSend, c.idx, h.idx, uint64(u.Src2))
	u.Done = true
}

// send puts one control message of instruction u on its link, or faults
// when the target cannot be reached from here: forward kinds go to the
// same or the next core, backward kinds (ctlJoin, ctlSwre) to this or a
// prior core.
func (c *core) send(h *hart, u *uop, msg mem.Msg) bool {
	name, th := ctlNames[msg.Kind], c.m.Hart(msg.Tgt)
	backward := msg.Kind >= ctlJoin
	switch {
	case th == nil:
		c.faultf(h.idx, "%s to nonexistent hart %d (pc %#x)", name, msg.Tgt, u.PC)
	case backward && th.core.idx > c.idx:
		c.faultf(h.idx, "%s target hart %d is on a later core: a data cannot go back in time (pc %#x)", name, msg.Tgt, u.PC)
	case !backward && th.core.idx != c.idx && th.core.idx != c.idx+1:
		c.faultf(h.idx, "%s target hart %d is not on the same or next core (pc %#x)", name, msg.Tgt, u.PC)
	default:
		msg.FromCore, msg.FromHart = uint16(c.idx), uint8(h.idx)
		// The direction checks are mem-level invariants the cases above
		// already hold.
		var err error
		if backward {
			err = c.m.Mem.SendBackward(c.m.cycle, c.idx, th.core.idx, msg)
		} else {
			err = c.m.Mem.SendForward(c.m.cycle, c.idx, th.core.idx, msg)
		}
		if err != nil {
			c.faultf(h.idx, "%s: %v", name, err)
		}
		return true
	}
	return false
}

// doRet performs the four ending types of a committed p_ret (Figure 6):
//
//  1. ra == 0 and t0 designates another hart: the hart ends (frees).
//  2. ra == 0 and t0 designates this hart: wait for a join address.
//  3. ra == 0 and t0 == -1: the whole machine exits.
//  4. ra != 0: send ra to the t0 home hart, which resumes fetching there.
//
// All types forward the ending-hart signal to the link hart, realizing
// the in-order hardware barrier between team members.
func (c *core) doRet(h *hart, u *uop, now uint64) {
	ra, t0 := u.Src1, u.Src2
	if h.HasPred {
		h.HasPred = false
		h.PredSignal = false
	}
	if ra == 0 && t0 == 0xFFFFFFFF {
		c.m.halt("exit")
		return
	}
	valid := t0&isa.HartIDValid != 0
	home, link := uint32(0), uint32(isa.NoLink)
	if valid {
		home, link = isa.HomeHart(t0), isa.LinkHart(t0)
	}
	self := h.gid
	if valid && link != isa.NoLink && link != self {
		c.send(h, u, mem.Msg{Kind: ctlSignal, Tgt: link})
	}
	switch {
	case ra == 0 && valid && home == self:
		// ending type 2: keep the hart, waiting for a join address
		h.setState(hartWaitJoin)
		h.PCValid = false
	case ra == 0:
		// ending type 1
		h.free(now)
	case valid && home == self:
		// ending type 4, join to self: resume at ra on the same hart
		h.PC = ra
		h.PCValid = true
		h.PCReady = now + 1
		c.fetchC |= h.bit
	case valid:
		// ending type 4: send the join address backward to the home hart
		c.send(h, u, mem.Msg{Kind: ctlJoin, Tgt: home, PC: ra})
		h.free(now)
	default:
		c.faultf(h.idx, "p_ret with ra=%#x but invalid identity t0=%#x (pc %#x)", ra, t0, u.PC)
	}
}
