package lbp

import "repro/internal/trace"

// Typed memory-event payloads.
//
// applyItem hands these to the memory system instead of closures: each is
// a plain struct whose bodies are exactly the statements the former
// closures ran, and whose pointers the checkpoint layer (state.go) can
// flatten to stable identifiers — hart global number, ROB index — and
// rebuild on restore.

// loadClient completes a load: the bank value parks in v at service
// time, and delivery writes it back into the issuing uop.
type loadClient struct {
	h *hart
	u *uop
	v uint32
}

func (lc *loadClient) LoadValue(v uint32) { lc.v = v }

func (lc *loadClient) LoadDone(done uint64) {
	lc.u.value = lc.v
	lc.u.memWait = false
	lc.h.execReadyAt = done
	lc.h.inflightMem--
	lc.h.core.wbC |= lc.h.bit
}

// storeClient acknowledges a store or continuation-value write back at
// the issuing hart.
type storeClient struct {
	h *hart
}

func (sc *storeClient) Done(uint64) { sc.h.inflightMem-- }

// swreMsg delivers a p_swre result value into the target hart's result
// buffer at the end of its backward-line traversal.
type swreMsg struct {
	m        *Machine
	fromCore int
	fromHart int
	tgt      uint32 // target hart global number
	idx      uint32 // result-buffer slot
	val      uint32
	pc       uint32 // sending instruction, for the overflow fault
}

func (s *swreMsg) Done(uint64) {
	th := s.m.harts[s.tgt]
	if !th.pushRemote(int(s.idx), s.val, s.m.cfg.RBDepth) {
		s.m.faultf(s.fromCore, s.fromHart,
			"p_swre overflowed result buffer %d of hart %d (pc %#x)", s.idx, s.tgt, s.pc)
	}
	th.core.issueC |= th.bit // a p_lwre may be waiting for the value
}

// startMsg delivers a start pc to an allocated hart (fork continuation).
type startMsg struct {
	m        *Machine
	fromCore int
	fromHart int
	tgt      uint32
	pc       uint32
}

func (s *startMsg) Done(done uint64) {
	m := s.m
	th := m.harts[s.tgt]
	if th.state != hartAllocated {
		m.faultf(s.fromCore, s.fromHart,
			"start for hart %d in state %d (not allocated)", s.tgt, th.state)
		return
	}
	th.start(s.pc, done)
	m.stats.Starts++
	m.event(trace.KindStart, th.core.idx, th.idx, uint64(s.pc))
}

// signalMsg delivers the ending-hart signal to the successor team member.
type signalMsg struct {
	m   *Machine
	tgt uint32
}

func (s *signalMsg) Done(uint64) {
	m := s.m
	th := m.harts[s.tgt]
	th.predSignal = true
	m.stats.Signals++
	m.event(trace.KindSignal, th.core.idx, th.idx, uint64(s.tgt))
}

// joinMsg delivers a join address backward to a waiting home hart.
type joinMsg struct {
	m        *Machine
	fromCore int
	fromHart int
	tgt      uint32
	addr     uint32
}

func (j *joinMsg) Done(done uint64) {
	m := j.m
	th := m.harts[j.tgt]
	if th.state != hartWaitJoin {
		m.faultf(j.fromCore, j.fromHart,
			"join for hart %d in state %d (not waiting)", j.tgt, th.state)
		return
	}
	th.start(j.addr, done)
	m.stats.Joins++
	m.event(trace.KindJoin, th.core.idx, th.idx, uint64(j.addr))
}
