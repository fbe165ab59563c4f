package mem

import (
	"fmt"
	"slices"

	"repro/internal/perf"
)

// Serializable memory-system state.
//
// A System is plain data: an in-flight event names its client by value
// (a hart number, or the control message it carries), so a snapshot is
// the events as they stand, and restoring one needs nothing from the
// caller but the handler the System already has. The banks travel as
// their page tables: the pages a program wrote, by index, so a snapshot
// costs what the program wrote, not what the banks address.

// State is the serializable state of a System at a cycle boundary. The
// code image is trimmed of trailing zero words; the events are in their
// dispatch order, (cycle, seq).
type State struct {
	Seq   uint64
	Stats Stats
	Perf  perf.MemCounters

	Code []uint32

	// Local and Shared are the two bank families' attached pages that
	// hold a non-zero word, in ascending page-table index order.
	Local  []Page
	Shared []Page

	// Links is the link table verbatim: every link's next-free cycle, in
	// the order New carves the views (the System struct declares it).
	Links []uint64

	Events []EventState
}

// Page is one bank page: its index in its family's page table (bank b's
// word off lives in page b*ceil(bankWords/256) + off/256) and its 256
// words.
type Page struct {
	Index int32
	Words *[pageWords]uint32
}

// EventState is one in-flight event, field for field: Hart is its
// client, and a message's Kind and FromHart are MsgKind and FromHart,
// its other fields in the access fields (see event).
type EventState struct {
	Cycle    uint64
	Seq      uint64
	Kind     uint8
	Hart     uint32
	Core     int32
	Off      uint32
	Addr     uint32
	Val      uint32
	Width    uint8
	Signed   bool
	MsgKind  uint8
	FromHart uint8
}

// Load reports whether the event completes a load of es.Hart: the hart
// waits for it in its result buffer.
func (es *EventState) Load() bool {
	k := evKind(es.Kind)
	return k == evLocalLoad || k == evSharedRead || k == evLoadDone
}

func trimZeros(words []uint32) []uint32 {
	n := len(words)
	for n > 0 && words[n-1] == 0 {
		n--
	}
	return append([]uint32(nil), words[:n]...)
}

// CaptureGlobalState snapshots the system: link-allocator state,
// counters, the code bank, the bank pages and the in-flight event
// queue. The pages are the live ones, not copies, so the snapshot must
// be encoded before the system steps again.
func (s *System) CaptureGlobalState() *State {
	st := &State{
		Seq:    s.seq,
		Stats:  s.Stats,
		Perf:   s.Perf,
		Code:   trimZeros(s.code),
		Local:  s.local.capture(),
		Shared: s.shared.capture(),
		Links:  append([]uint64(nil), s.links...),
	}
	events := s.events.appendAll(make([]event, 0, s.events.len()))
	slices.SortFunc(events, dispatchOrder)
	st.Events = make([]EventState, len(events))
	for i := range events {
		e := &events[i]
		st.Events[i] = EventState{
			Cycle: e.cycle, Seq: e.seq, Kind: uint8(e.kind), Hart: e.hart, Core: e.core,
			Off: e.off, Addr: e.addr, Val: e.val,
			Width: uint8(e.width), Signed: e.signed, MsgKind: e.msg, FromHart: e.from,
		}
	}
	return st
}

// RestoreGlobalState installs a snapshot taken at cycle now into a
// System of the same configuration, taking over its pages (decoded ones
// or copies: the pages of a capture are live). The snapshot is outside
// input: every page and whatever dispatch would index through an event
// is checked here, before anything is installed, and so is the events'
// order: each is due after now and has its own seq, at least 1 and at
// most the snapshot's Seq. The clients the events name are the
// caller's to check: the System does not know the harts.
func (s *System) RestoreGlobalState(st *State, now uint64) error {
	if len(st.Code) > int(s.cfg.CodeBytes/4) {
		return fmt.Errorf("mem: state code image exceeds the code bank")
	}
	if len(st.Links) != len(s.links) {
		return fmt.Errorf("mem: state has %d links, the configuration has %d", len(st.Links), len(s.links))
	}
	if err := s.local.check(st.Local, "local"); err != nil {
		return err
	}
	if err := s.shared.check(st.Shared, "shared"); err != nil {
		return err
	}
	events := make([]event, len(st.Events))
	for i := range st.Events {
		var err error
		if events[i], err = s.restoreEvent(&st.Events[i]); err != nil {
			return fmt.Errorf("mem: state event %d %v", i, err)
		}
		if e := &events[i]; e.cycle <= now {
			return fmt.Errorf("mem: state event %d is due at cycle %d, not after the state's cycle %d", i, e.cycle, now)
		} else if e.seq == 0 || e.seq > st.Seq {
			return fmt.Errorf("mem: state event %d has seq %d, outside [1, %d]", i, e.seq, st.Seq)
		}
	}
	// The wheel's buckets are lists in seq order: insert in dispatch order.
	slices.SortFunc(events, dispatchOrder)
	seqs := make([]uint64, len(events))
	for i := range events {
		seqs[i] = events[i].seq
	}
	slices.Sort(seqs)
	for i := 1; i < len(seqs); i++ {
		if seqs[i] == seqs[i-1] {
			return fmt.Errorf("mem: state has two events of seq %d", seqs[i])
		}
	}
	clear(s.code)
	s.code = s.code[:0]
	s.growCode(len(st.Code))
	copy(s.code, st.Code)
	s.release(&s.local)
	s.release(&s.shared)
	s.local.attach(st.Local)
	s.shared.attach(st.Shared)
	copy(s.links, st.Links)
	s.seq = st.Seq
	s.Stats = st.Stats
	s.Perf = st.Perf
	s.events.reset(now)
	for _, e := range events {
		i := s.events.alloc()
		s.events.slab[i] = e
		s.events.link(i)
	}
	return nil
}

// restoreEvent rebuilds one in-flight event, holding it to the
// configuration: a kind dispatch knows, a bank that exists and a word
// inside it for the kinds that touch one, and an access width for the
// kinds that carry one.
func (s *System) restoreEvent(es *EventState) (event, error) {
	e := event{
		cycle: es.Cycle, seq: es.Seq, kind: evKind(es.Kind), hart: es.Hart, core: es.Core,
		off: es.Off, addr: es.Addr, val: es.Val,
		width: Width(es.Width), signed: es.Signed, msg: es.MsgKind, from: es.FromHart,
	}
	var b *banks // the bank family the event indexes, if any
	sized := false
	switch e.kind {
	case evLocalLoad, evLocalStore:
		b, sized = &s.local, true
	case evSharedRead, evSharedWrite:
		b, sized = &s.shared, true
	case evCVWrite:
		b = &s.local
	case evLoadDone, evStoreDone, evMessage:
	default:
		return e, fmt.Errorf("has unknown kind %d", es.Kind)
	}
	if b != nil {
		if es.Core < 0 || int(es.Core) >= s.cfg.Cores {
			return e, fmt.Errorf("names bank %d of %d", es.Core, s.cfg.Cores)
		}
		if es.Off >= b.words {
			return e, fmt.Errorf("names word %d of a %d-word bank", es.Off, b.words)
		}
	}
	if sized && e.width != Width8 && e.width != Width16 && e.width != Width32 {
		return e, fmt.Errorf("has access width %d", es.Width)
	}
	return e, nil
}

// Reset returns the system to its post-New state, keeping allocations,
// for warm-machine reuse across runs.
func (s *System) Reset() {
	// The code prefix is cleared and truncated, keeping its array for the
	// next load; the written bank pages go back to the free list.
	clear(s.code)
	s.code = s.code[:0]
	s.release(&s.local)
	s.release(&s.shared)
	clear(s.links)
	s.events.reset(0)
	s.seq = 0
	s.Stats = Stats{}
	s.Perf = perf.MemCounters{}
}
