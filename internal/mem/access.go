package mem

import "repro/internal/perf"

// Width of a memory access in bytes.
type Width uint8

const (
	Width8  Width = 1
	Width16 Width = 2
	Width32 Width = 4
)

// Handler completes the events the memory system dispatches. An event
// names its client by value — the issuing hart's global number, or the
// control message itself — so the queue holds no pointers and a
// checkpoint saves it as it stands; the one handler, set on the System
// with SetHandler, is what dispatch calls. A shared load hands over its
// value at bank service time and its completion when the response is
// back at the core; a local load both on one cycle.
type Handler interface {
	LoadValue(hart uint32, v uint32)    // a load's bank value, at service time
	LoadDone(hart uint32, done uint64)  // a load's response, back at its core
	StoreDone(hart uint32, done uint64) // a store acknowledged at its core, or a CV write performed
	Deliver(msg Msg, done uint64)       // a control message at its target's core
}

// SetHandler installs the handler every later dispatch calls.
func (s *System) SetHandler(h Handler) { s.h = h }

// evKind discriminates the typed memory events. Events are plain data —
// no closures, no pointers — so the in-flight queue is serializable as
// it stands.
type evKind uint8

const (
	evLocalLoad   evKind = iota // read a local bank, deliver value + done
	evSharedRead                // read a shared bank at service time (the value parks with the handler)
	evLoadDone                  // deliver a shared load's completion
	evLocalStore                // write a local bank, acknowledge
	evSharedWrite               // write a shared bank at service time
	evStoreDone                 // acknowledge a shared store
	evCVWrite                   // continuation-value word write into a local bank
	evMessage                   // control-message delivery (forward/backward links)
)

// event is a scheduled action in the memory system: applying an access at
// its bank service time, or delivering a response at its completion time.
// A message uses none of the access fields, so it travels in them. The
// exported fields are the event a checkpoint saves (state.go); next is
// the wheel's.
type event struct {
	Cycle    uint64
	Seq      uint64
	Hart     uint32 // the client: an access's issuing hart, a message's Tgt
	Core     int32  // bank/core index of the access; a message's FromCore
	Off      uint32 // word in the bank; a message's Idx
	Addr     uint32 // byte address; a message's PC
	Val      uint32 // the value stored; a message's Val
	next     int32  // the wheel's list link (wheel.go)
	Kind     evKind
	Width    Width
	Signed   bool
	MsgKind  uint8 // a message's Kind
	FromHart uint8 // a message's FromHart
}

// dispatch performs one due event.
func (s *System) dispatch(e *event) {
	switch e.Kind {
	case evLocalLoad:
		s.h.LoadValue(e.Hart, subWordLoad(s.local.load(int(e.Core), e.Off), e.Addr, e.Width, e.Signed))
		s.h.LoadDone(e.Hart, e.Cycle)
	case evSharedRead:
		s.h.LoadValue(e.Hart, subWordLoad(s.shared.load(int(e.Core), e.Off), e.Addr, e.Width, e.Signed))
	case evLoadDone:
		s.h.LoadDone(e.Hart, e.Cycle)
	case evLocalStore:
		s.store(&s.local, int(e.Core), e.Off, e.Val, e.Addr, e.Width)
		s.h.StoreDone(e.Hart, e.Cycle)
	case evSharedWrite:
		s.store(&s.shared, int(e.Core), e.Off, e.Val, e.Addr, e.Width)
	case evStoreDone:
		s.h.StoreDone(e.Hart, e.Cycle)
	case evCVWrite:
		s.write(&s.local, int(e.Core), e.Off, e.Val)
		s.h.StoreDone(e.Hart, e.Cycle)
	case evMessage:
		s.h.Deliver(e.message(), e.Cycle)
	}
}

// schedule queues an event of kind k for cycle, stamped with the next
// seq, and returns it for the caller to fill in before anything else is
// scheduled (the slab it lives in may grow then).
func (s *System) schedule(cycle uint64, k evKind) *event {
	s.seq++
	w := &s.events
	i := w.alloc()
	e := &w.slab[i]
	*e = event{Cycle: cycle, Seq: s.seq, Kind: k}
	w.link(i)
	if n := w.len(); n > s.Stats.PeakPendingEvents {
		s.Stats.PeakPendingEvents = n
	}
	return e
}

// DataMapped reports whether a load or store to addr would reach a
// backed word (the same mapping check SubmitLoad/SubmitStore perform).
// It is a pure function of the configuration, so the pipeline's compute
// phase can raise unmapped-address faults before the submit is applied.
func (s *System) DataMapped(addr uint32) bool {
	switch RegionOf(addr) {
	case RegionLocal:
		_, ok := s.localSlot(addr)
		return ok
	case RegionShared:
		_, _, ok := s.sharedSlot(addr)
		return ok
	default:
		return false
	}
}

// LocalMapped reports whether addr falls inside a core's local bank
// (the mapping check of SubmitCVWrite).
func (s *System) LocalMapped(addr uint32) bool {
	_, ok := s.localSlot(addr)
	return ok
}

// reqClass attributes a request-link wait at tree level index k (0 =
// the paper's r1 links). Levels beyond r2 exist only on machines above
// 64 cores and share the r2 bucket (see the note on perf.LinkClass).
func reqClass(k int) perf.LinkClass {
	if k == 0 {
		return perf.LinkR1Req
	}
	return perf.LinkR2Req
}

// respClass is reqClass for the result-link families.
func respClass(k int) perf.LinkClass {
	if k == 0 {
		return perf.LinkR1Resp
	}
	return perf.LinkR2Resp
}

// routeShared reserves the link slots of a shared access from core c to
// bank o and returns (serviceStart, responseDone). hops counts link
// traversals for the statistics.
//
// The request ascends the router hierarchy from c to the lowest common
// ancestor and descends to o — one up link per level with a differing
// group index, then the matching down links in reverse — and the
// response retraces the path on the result-link families. For the
// paper's 64-core degree-4 machine this is link-for-link the fixed
// r1/r2 switch the model used to hard-code (converging at r1: no tree
// links; at r2: r1 up + r1 down; at the root: r1+r2 up, r2+r1 down).
func (s *System) routeShared(now uint64, c, o int) (serviceT, doneT uint64) {
	hop := uint64(s.cfg.HopLat)
	lat := uint64(s.cfg.SharedLat)
	if c == o {
		// Own bank through the local port: no routing.
		s.Stats.SharedLocal++
		t := s.alloc(&s.bankLocal[c], now+1, perf.LinkBankLocal)
		return t, t + lat
	}
	s.Stats.SharedRemote++
	d := s.cfg.RouterDegree
	chc, cho := s.cfg.ChipOf(c), s.cfg.ChipOf(o)
	chipHop := uint64(s.cfg.ChipHopLat)
	// Group indices of c and o at every level below the convergence
	// point; cg[k]/og[k] index the level-(k+1) link arrays.
	var cg, og [maxTreeDepth]int32
	up := 0
	for gc, gr := c/d, o/d; gc != gr; gc, gr = gc/d, gr/d {
		cg[up], og[up] = int32(gc), int32(gr)
		up++
	}
	hops := uint64(3) + 4*uint64(up) // core links, bank port, both tree traversals
	t := s.alloc(&s.coreUp[c], now+hop, perf.LinkCoreUp)
	if chc != cho {
		// leave the source chip and enter the destination chip
		t = s.alloc(&s.chipUpReq[chc], t+chipHop, perf.LinkChipReq)
		t = s.alloc(&s.chipDownReq[cho], t+chipHop, perf.LinkChipReq)
		hops += 2
	}
	for k := 0; k < up; k++ {
		t = s.alloc(&s.upReq[k][cg[k]], t+hop, reqClass(k))
	}
	for k := up - 1; k >= 0; k-- {
		t = s.alloc(&s.downReq[k][og[k]], t+hop, reqClass(k))
	}
	t = s.alloc(&s.bankPort[o], t+hop, perf.LinkBankPort)
	serviceT = t
	// response path (reverse), on the result links
	t += lat
	if chc != cho {
		t = s.alloc(&s.chipUpResp[cho], t+chipHop, perf.LinkChipResp)
		t = s.alloc(&s.chipDownResp[chc], t+chipHop, perf.LinkChipResp)
		hops += 2
	}
	for k := 0; k < up; k++ {
		t = s.alloc(&s.upResp[k][og[k]], t+hop, respClass(k))
	}
	for k := up - 1; k >= 0; k-- {
		t = s.alloc(&s.downResp[k][cg[k]], t+hop, respClass(k))
	}
	t = s.alloc(&s.coreDown[c], t+hop, perf.LinkCoreDown)
	s.Stats.RemoteHops += hops
	return serviceT, t
}

// observeShared records a shared access's submit-to-completion latency in
// the local (own bank) or remote (routed) histogram.
func (s *System) observeShared(core, bank int, lat uint64) {
	if core == bank {
		s.Perf.LocalLat.Observe(lat)
	} else {
		s.Perf.RemoteLat.Observe(lat)
	}
}

// subWordLoad extracts a (sub-)word from w for an access at addr.
func subWordLoad(w, addr uint32, width Width, signed bool) uint32 {
	switch width {
	case Width8:
		b := w >> ((addr & 3) * 8) & 0xFF
		if signed {
			return uint32(int32(b<<24) >> 24)
		}
		return b
	case Width16:
		h := w >> ((addr & 2) * 8) & 0xFFFF
		if signed {
			return uint32(int32(h<<16) >> 16)
		}
		return h
	default:
		return w
	}
}

// subWordStore merges v into w for an access at addr.
func subWordStore(w, v, addr uint32, width Width) uint32 {
	switch width {
	case Width8:
		sh := (addr & 3) * 8
		return w&^(0xFF<<sh) | (v&0xFF)<<sh
	case Width16:
		sh := (addr & 2) * 8
		return w&^(0xFFFF<<sh) | (v&0xFFFF)<<sh
	default:
		return v
	}
}

// store merges v, an access of width at addr, into word off of bank.
func (s *System) store(b *banks, bank int, off, v, addr uint32, width Width) {
	s.write(b, bank, off, subWordStore(b.load(bank, off), v, addr, width))
}

// SubmitLoad submits a load from `core` at cycle `now` for hart. The
// handler's LoadValue is invoked at bank service time and LoadDone when
// the response arrives back at the core (both during later Step calls).
// It returns false for an unmapped address.
func (s *System) SubmitLoad(now uint64, core int, addr uint32, width Width, signed bool, hart uint32) bool {
	switch RegionOf(addr) {
	case RegionLocal:
		off, ok := s.localSlot(addr)
		if !ok {
			return false
		}
		s.Stats.LocalAccesses++
		t := s.alloc(&s.localPort[core], now+1, perf.LinkLocalPort)
		done := t + uint64(s.cfg.LocalLat)
		s.Perf.LocalLat.Observe(done - now)
		e := s.schedule(done, evLocalLoad)
		e.Hart, e.Core, e.Off, e.Addr, e.Width, e.Signed = hart, int32(core), off, addr, width, signed
		return true
	case RegionShared:
		bank, off, ok := s.sharedSlot(addr)
		if !ok {
			return false
		}
		serviceT, done := s.routeShared(now, core, bank)
		s.observeShared(core, bank, done-now)
		e := s.schedule(serviceT, evSharedRead)
		e.Hart, e.Core, e.Off, e.Addr, e.Width, e.Signed = hart, int32(bank), off, addr, width, signed
		s.schedule(done, evLoadDone).Hart = hart
		return true
	default:
		return false
	}
}

// SubmitStore submits a store from `core` for hart. The handler's
// StoreDone is invoked when the write is acknowledged back at the core.
func (s *System) SubmitStore(now uint64, core int, addr, value uint32, width Width, hart uint32) bool {
	switch RegionOf(addr) {
	case RegionLocal:
		off, ok := s.localSlot(addr)
		if !ok {
			return false
		}
		s.Stats.LocalAccesses++
		t := s.alloc(&s.localPort[core], now+1, perf.LinkLocalPort)
		done := t + uint64(s.cfg.LocalLat)
		s.Perf.LocalLat.Observe(done - now)
		e := s.schedule(done, evLocalStore)
		e.Hart, e.Core, e.Off, e.Addr, e.Val, e.Width = hart, int32(core), off, addr, value, width
		return true
	case RegionShared:
		bank, off, ok := s.sharedSlot(addr)
		if !ok {
			return false
		}
		serviceT, done := s.routeShared(now, core, bank)
		s.observeShared(core, bank, done-now)
		e := s.schedule(serviceT, evSharedWrite)
		e.Core, e.Off, e.Addr, e.Val, e.Width = int32(bank), off, addr, value, width
		s.schedule(done, evStoreDone).Hart = hart
		return true
	default:
		return false
	}
}

// SubmitCVWrite submits a continuation-value write (p_swcv): a word store
// into the local bank of targetCore, issued by fromCore. If the target is
// the next core, the forward inter-core link is traversed first.
// The handler's StoreDone is invoked for hart when the write has been
// performed at the target bank.
func (s *System) SubmitCVWrite(now uint64, fromCore, targetCore int, addr, value uint32, hart uint32) bool {
	off, ok := s.localSlot(addr)
	if !ok {
		return false
	}
	s.Stats.CVWrites++
	t := now
	if targetCore != fromCore {
		t = s.alloc(&s.forward[fromCore], t+uint64(s.cfg.HopLat), perf.LinkForward)
	}
	t = s.alloc(&s.localPort[targetCore], t+1, perf.LinkLocalPort)
	done := t + uint64(s.cfg.LocalLat)
	if targetCore == fromCore {
		s.Perf.LocalLat.Observe(done - now)
	} else {
		s.Perf.RemoteLat.Observe(done - now)
	}
	e := s.schedule(done, evCVWrite)
	e.Hart, e.Core, e.Off, e.Val = hart, int32(targetCore), off, value
	return true
}
