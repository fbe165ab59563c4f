package lbp

import "repro/internal/trace"

// Typed memory-event payloads.
//
// The cores hand these to the memory system instead of closures: each is
// a plain struct whose bodies are exactly the statements the former
// closures ran, and whose hart pointer the checkpoint layer (state.go)
// flattens to the hart's global number and rebuilds on restore.

// loadClient completes a load: the bank value parks in v at service
// time, and delivery writes it back into the issuing uop — the one in
// the hart's result buffer, h.exec, which a load holds until delivery.
type loadClient struct {
	h *hart
	v uint32
}

func (lc *loadClient) LoadValue(v uint32) { lc.v = v }

func (lc *loadClient) LoadDone(done uint64) {
	u := &lc.h.rob[lc.h.exec]
	u.value = lc.v
	u.memWait = false
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

// ctlKind names the four control messages the cores exchange over the
// inter-core links (Figure 9).
type ctlKind uint8

const (
	ctlStart  ctlKind = iota // start pc to an allocated hart, forward link (fork continuation)
	ctlSignal                // ending-hart signal to the successor team member, forward link
	ctlJoin                  // join address to a waiting home hart, backward line
	ctlSwre                  // p_swre result value into a result buffer, backward line
)

// ctlNames labels a message kind in faults.
var ctlNames = [...]string{ctlStart: "start", ctlSignal: "ending signal", ctlJoin: "join", ctlSwre: "p_swre"}

// backward reports whether the kind travels on the backward line.
func (k ctlKind) backward() bool { return k >= ctlJoin }

// ctlMsg is one control message in flight. The exported fields are what
// a checkpoint saves (savedClient holds the struct by value); the
// machine pointer is reattached on restore. One is allocated per
// message, so the sender is packed to keep the struct at 32 bytes.
type ctlMsg struct {
	m        *Machine
	Kind     ctlKind
	FromHart uint8
	FromCore uint16
	Tgt      uint32 // target hart global number
	Idx      uint32 // ctlSwre: result-buffer slot
	Val      uint32 // ctlSwre: the value
	// PC is where the target fetches next (ctlStart, ctlJoin) or, for
	// ctlSwre, the sending instruction, named by the overflow fault.
	PC uint32
}

// Done delivers the message at the end of its link traversal.
func (c *ctlMsg) Done(done uint64) {
	m := c.m
	th := m.harts[c.Tgt]
	switch c.Kind {
	case ctlStart:
		if th.state != hartAllocated {
			m.faultf(int(c.FromCore), int(c.FromHart),
				"start for hart %d in state %d (not allocated)", c.Tgt, th.state)
			return
		}
		th.start(c.PC, done)
		m.stats.Starts++
		m.event(trace.KindStart, th.core.idx, th.idx, uint64(c.PC))
	case ctlSignal:
		th.predSignal = true
		m.stats.Signals++
		m.event(trace.KindSignal, th.core.idx, th.idx, uint64(c.Tgt))
	case ctlJoin:
		if th.state != hartWaitJoin {
			m.faultf(int(c.FromCore), int(c.FromHart),
				"join for hart %d in state %d (not waiting)", c.Tgt, th.state)
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
