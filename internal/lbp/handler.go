package lbp

import (
	"repro/internal/mem"
	"repro/internal/trace"
)

// The memory system's handler. An in-flight memory event names its
// client by value — the issuing hart's global number, or the control
// message itself — and the machine completes it here: mem.System calls
// these four methods and nothing else of the machine.

// LoadValue parks a load's bank value on its hart until the response is
// back (a hart has at most one load in flight).
func (m *Machine) LoadValue(hart uint32, v uint32) { m.harts[hart].LoadVal = v }

// LoadDone completes a load: the parked value goes into the issuing
// uop, the one in the hart's result buffer, h.Exec, which a load holds
// until delivery.
func (m *Machine) LoadDone(hart uint32, done uint64) {
	h := m.harts[hart]
	u := &h.Rob[h.Exec]
	u.Value, h.LoadVal = h.LoadVal, 0
	u.MemWait = false
	h.ExecReadyAt = done
	h.InflightMem--
	h.core.wbC |= h.bit
}

// StoreDone acknowledges a store or continuation-value write back at
// the issuing hart.
func (m *Machine) StoreDone(hart uint32, _ uint64) { m.harts[hart].InflightMem-- }

// The four control messages the cores exchange over the inter-core
// links (Figure 9), the Kind of a mem.Msg. Idx and Val are a p_swre's
// result-buffer slot and value; PC is where the target fetches next
// (ctlStart, ctlJoin) or, for ctlSwre, the sending instruction, named
// by the overflow fault.
const (
	ctlStart  uint8 = iota // start pc to an allocated hart, forward link (fork continuation)
	ctlSignal              // ending-hart signal to the successor team member, forward link
	ctlJoin                // join address to a waiting home hart, backward line
	ctlSwre                // p_swre result value into a result buffer, backward line
)

// ctlNames labels a message kind in faults.
var ctlNames = [...]string{ctlStart: "start", ctlSignal: "ending signal", ctlJoin: "join", ctlSwre: "p_swre"}

// Deliver performs a control message at the end of its link traversal.
func (m *Machine) Deliver(c mem.Msg, done uint64) {
	th := m.harts[c.Tgt]
	switch c.Kind {
	case ctlStart:
		if th.State != hartAllocated {
			m.faultf(int(c.FromCore), int(c.FromHart),
				"start for hart %d in state %d (not allocated)", c.Tgt, th.State)
			return
		}
		th.start(c.PC, done)
		m.stats.Starts++
		m.event(trace.KindStart, th.core.idx, th.idx, uint64(c.PC))
	case ctlSignal:
		th.PredSignal = true
		m.stats.Signals++
		m.event(trace.KindSignal, th.core.idx, th.idx, uint64(c.Tgt))
	case ctlJoin:
		if th.State != hartWaitJoin {
			m.faultf(int(c.FromCore), int(c.FromHart),
				"join for hart %d in state %d (not waiting)", c.Tgt, th.State)
			return
		}
		th.start(c.PC, done)
		m.stats.Joins++
		m.event(trace.KindJoin, th.core.idx, th.idx, uint64(c.PC))
	case ctlSwre:
		if !th.pushRemote(int(c.Idx), c.Val, m.cfg.RBDepth) {
			m.faultf(int(c.FromCore), int(c.FromHart),
				"p_swre overflowed result buffer %d of hart %d (pc %#x)", c.Idx, c.Tgt, c.PC)
		}
		th.core.issueC |= th.bit // a p_lwre may be waiting for the value
	}
}
