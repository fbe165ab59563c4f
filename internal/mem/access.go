package mem

import "repro/internal/perf"

// Width of a memory access in bytes.
type Width uint8

const (
	Width8  Width = 1
	Width16 Width = 2
	Width32 Width = 4
)

// LoadClient receives a load's value at bank service time and its
// completion at response-delivery time. A shared load schedules two
// events — the bank read at service time parks the value in the client,
// the response delivery hands back the completion cycle — both carrying
// the same client, so implementations must be pointer types: checkpoint
// capture relies on pointer identity to keep the pair attached to one
// serialized client record.
type LoadClient interface {
	LoadValue(v uint32)
	LoadDone(done uint64)
}

// DoneClient receives a completion cycle: a store acknowledged back at
// the core, a continuation-value write performed at the target bank, or
// a control message delivered over the neighbor links.
type DoneClient interface {
	Done(done uint64)
}

// LoadFunc adapts a callback to the LoadClient interface, for tests and
// tools. Adapter clients are not serializable: a checkpoint taken while
// one is in flight fails.
func LoadFunc(fn func(value uint32, done uint64)) LoadClient {
	return &loadFunc{fn: fn}
}

type loadFunc struct {
	fn func(uint32, uint64)
	v  uint32
}

func (l *loadFunc) LoadValue(v uint32)   { l.v = v }
func (l *loadFunc) LoadDone(done uint64) { l.fn(l.v, done) }

// DoneFunc adapts a callback to the DoneClient interface, for tests and
// tools. Like LoadFunc adapters it cannot be checkpointed.
type DoneFunc func(done uint64)

// Done implements DoneClient.
func (f DoneFunc) Done(done uint64) { f(done) }

// evKind discriminates the typed memory events. Events are plain data —
// no closures — so the in-flight queue is serializable; the client
// fields carry the machine-side payload invoked on dispatch.
type evKind uint8

const (
	evLocalLoad   evKind = iota // read a local bank, deliver value + done
	evSharedRead                // read a shared bank at service time (value parks in the client)
	evLoadDone                  // deliver a shared load's completion
	evLocalStore                // write a local bank, acknowledge
	evSharedWrite               // write a shared bank at service time
	evStoreDone                 // acknowledge a shared store
	evCVWrite                   // continuation-value word write into a local bank
	evMessage                   // control-message delivery (forward/backward links)
)

// event is a scheduled action in the memory system: applying an access at
// its bank service time, or delivering a response at its completion time.
type event struct {
	cycle  uint64
	seq    uint64
	lc     LoadClient
	dc     DoneClient
	core   int32 // bank/core index of the access
	off    uint32
	addr   uint32
	val    uint32
	next   int32 // the wheel's list link (wheel.go)
	kind   evKind
	width  Width
	signed bool
}

// dispatch performs one due event.
func (s *System) dispatch(e *event) {
	switch e.kind {
	case evLocalLoad:
		e.lc.LoadValue(subWordLoad(s.local.load(int(e.core), e.off), e.addr, e.width, e.signed))
		e.lc.LoadDone(e.cycle)
	case evSharedRead:
		e.lc.LoadValue(subWordLoad(s.shared.load(int(e.core), e.off), e.addr, e.width, e.signed))
	case evLoadDone:
		e.lc.LoadDone(e.cycle)
	case evLocalStore:
		s.store(&s.local, int(e.core), e.off, e.val, e.addr, e.width)
		if e.dc != nil {
			e.dc.Done(e.cycle)
		}
	case evSharedWrite:
		s.store(&s.shared, int(e.core), e.off, e.val, e.addr, e.width)
	case evStoreDone, evMessage:
		if e.dc != nil {
			e.dc.Done(e.cycle)
		}
	case evCVWrite:
		s.write(&s.local, int(e.core), e.off, e.val)
		if e.dc != nil {
			e.dc.Done(e.cycle)
		}
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
	*e = event{cycle: cycle, seq: s.seq, kind: k}
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

// SubmitLoad submits a load from `core` at cycle `now`. The client's
// LoadValue is invoked at bank service time and LoadDone when the
// response arrives back at the core (both during later Step calls).
// It returns false for an unmapped address.
func (s *System) SubmitLoad(now uint64, core int, addr uint32, width Width, signed bool, lc LoadClient) bool {
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
		e.core, e.off, e.addr, e.width, e.signed, e.lc = int32(core), off, addr, width, signed, lc
		return true
	case RegionShared:
		bank, off, ok := s.sharedSlot(addr)
		if !ok {
			return false
		}
		serviceT, done := s.routeShared(now, core, bank)
		s.observeShared(core, bank, done-now)
		e := s.schedule(serviceT, evSharedRead)
		e.core, e.off, e.addr, e.width, e.signed, e.lc = int32(bank), off, addr, width, signed, lc
		s.schedule(done, evLoadDone).lc = lc
		return true
	default:
		return false
	}
}

// SubmitStore submits a store from `core`. dc (optional) is invoked when
// the write is acknowledged back at the core.
func (s *System) SubmitStore(now uint64, core int, addr, value uint32, width Width, dc DoneClient) bool {
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
		e.core, e.off, e.addr, e.val, e.width, e.dc = int32(core), off, addr, value, width, dc
		return true
	case RegionShared:
		bank, off, ok := s.sharedSlot(addr)
		if !ok {
			return false
		}
		serviceT, done := s.routeShared(now, core, bank)
		s.observeShared(core, bank, done-now)
		e := s.schedule(serviceT, evSharedWrite)
		e.core, e.off, e.addr, e.val, e.width = int32(bank), off, addr, value, width
		s.schedule(done, evStoreDone).dc = dc
		return true
	default:
		return false
	}
}

// SubmitCVWrite submits a continuation-value write (p_swcv): a word store
// into the local bank of targetCore, issued by fromCore. If the target is
// the next core, the forward inter-core link is traversed first.
// dc is invoked when the write has been performed at the target bank.
func (s *System) SubmitCVWrite(now uint64, fromCore, targetCore int, addr, value uint32, dc DoneClient) bool {
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
	e.core, e.off, e.val, e.dc = int32(targetCore), off, value, dc
	return true
}
