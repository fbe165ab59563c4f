package mem

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/perf"
)

// Serializable memory-system state.
//
// A System is plain data: an in-flight event names its client by value
// (a hart number, or the control message it carries), so a snapshot
// saves the events themselves — gob encodes an event's exported fields,
// everything but the wheel's list link — and restoring one needs
// nothing from the caller but the handler the System already has. The
// banks travel as their page tables: the pages a program wrote, by
// index, so a snapshot costs what the program wrote, not what the banks
// address.

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

	Events []event
}

// Page is one bank page: its index in its family's page table (bank b's
// word off lives in page b*ceil(bankWords/256) + off/256) and its 256
// words.
type Page struct {
	Index int32
	Words *[pageWords]uint32
}

// Load reports whether e is part of a load of e.Hart, its bank read or
// its response: the hart waits for it in its result buffer.
func (e *event) Load() bool {
	return e.Kind == evLocalLoad || e.Kind == evSharedRead || e.Kind == evLoadDone
}

// Acks reports whether e completes an access of e.Hart: dispatch calls
// the handler's LoadDone or StoreDone for it.
func (e *event) Acks() bool {
	return e.Kind != evSharedRead && e.Kind != evSharedWrite && e.Kind != evMessage
}

// IsMessage reports whether e delivers a control message, of kind
// e.MsgKind to hart e.Hart.
func (e *event) IsMessage() bool { return e.Kind == evMessage }

// Events returns a copy of the events in flight, in dispatch order.
func (s *System) Events() []event {
	events := s.events.appendAll(make([]event, 0, s.events.len()))
	slices.SortFunc(events, dispatchOrder)
	return events
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
		Events: s.Events(),
	}
	return st
}

// RestoreGlobalState installs a snapshot taken at cycle now into a
// System of the same configuration, taking over its pages (decoded ones
// or copies: the pages of a capture are live) and its events. The
// snapshot is outside input: every page and whatever dispatch would
// index through an event is checked here, before anything is
// installed, and so is the events' order: each has its own seq, at
// least 1 and at most the snapshot's Seq. When an event is due and
// which clients it names are the caller's to check: the System does
// not know the clock or the harts.
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
	for i := range st.Events {
		e := &st.Events[i]
		if err := s.checkEvent(e); err != nil {
			return fmt.Errorf("mem: state event %d %v", i, err)
		}
		if e.Seq == 0 || e.Seq > st.Seq {
			return fmt.Errorf("mem: state event %d has seq %d, outside [1, %d]", i, e.Seq, st.Seq)
		}
	}
	events := slices.Clone(st.Events)
	slices.SortFunc(events, func(a, b event) int { return cmp.Compare(a.Seq, b.Seq) })
	for i := 1; i < len(events); i++ {
		if events[i].Seq == events[i-1].Seq {
			return fmt.Errorf("mem: state has two events of seq %d", events[i].Seq)
		}
	}
	// The wheel's buckets are lists in seq order: insert in dispatch order.
	slices.SortFunc(events, dispatchOrder)
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

// checkEvent holds an in-flight event to the configuration: a kind
// dispatch knows, a bank that exists and a word inside it for the kinds
// that touch one, and an access width for the kinds that carry one.
func (s *System) checkEvent(e *event) error {
	var b *banks // the bank family the event indexes, if any
	sized := false
	switch e.Kind {
	case evLocalLoad, evLocalStore:
		b, sized = &s.local, true
	case evSharedRead, evSharedWrite:
		b, sized = &s.shared, true
	case evCVWrite:
		b = &s.local
	case evLoadDone, evStoreDone, evMessage:
	default:
		return fmt.Errorf("has unknown kind %d", e.Kind)
	}
	if b != nil {
		if e.Core < 0 || int(e.Core) >= s.cfg.Cores {
			return fmt.Errorf("names bank %d of %d", e.Core, s.cfg.Cores)
		}
		if e.Off >= b.words {
			return fmt.Errorf("names word %d of a %d-word bank", e.Off, b.words)
		}
	}
	if sized && e.Width != Width8 && e.Width != Width16 && e.Width != Width32 {
		return fmt.Errorf("has access width %d", e.Width)
	}
	return nil
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
