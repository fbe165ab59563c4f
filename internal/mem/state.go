package mem

import (
	"fmt"

	"repro/internal/perf"
)

// Serializable memory-system state.
//
// A System is plain data except for the clients attached to in-flight
// events, which point back into the machine. CaptureGlobalState
// therefore splits a snapshot in two: a State struct of pure values, and
// a flat client table the caller (internal/lbp) serializes with its own
// knowledge of the client types. Event records reference clients by
// table index; a LoadClient shared by a service/delivery event pair is
// deduplicated by pointer identity so restore re-attaches one client to
// both events.
//
// The bank images — the bulk of the bytes on large machines — are
// captured separately per core range (CaptureBankRange), so the sharded
// checkpoint format streams them in per-core-group shards instead of
// materializing one contiguous snapshot of every bank.

// State is the serializable state of a System at a cycle boundary,
// minus the per-core bank images (CaptureBankRange). The code image is
// trimmed of trailing zero words; the events slice is the heap's
// backing array verbatim (a heap restored in array order is the same
// heap, so pop order is preserved bit-exactly).
type State struct {
	Seq   uint64
	Stats Stats
	Perf  perf.MemCounters

	Code []uint32

	// Reserved: never written, never read. gob names every exported
	// field in the type descriptor of each checkpoint stream, so
	// deleting these (or the R1*/R2* block below) would change the
	// bytes of the version-2 format; they go with the next
	// checkpointVersion bump (internal/lbp/state.go).
	Local, Shared [][]uint32

	CoreUp, CoreDown, BankPort, BankLocal, LocalPort []uint64

	// Router-tree links, level-indexed (entry k = level k+1); see
	// System. BackUp/BackDown are the express backward links of
	// machines above 64 cores.
	UpReq, UpResp, DownReq, DownResp [][]uint64
	BackUp, BackDown                 [][]uint64

	// Reserved, see Local/Shared.
	R1UpReq, R1UpResp, R1DownReq, R1DownResp []uint64
	R2UpReq, R2UpResp, R2DownReq, R2DownResp []uint64

	Forward, Backward                                []uint64
	ChipUpReq, ChipUpResp, ChipDownReq, ChipDownResp []uint64

	Events []EventState
}

// EventState is one in-flight event with its client flattened to a
// table index (-1 = no client attached).
type EventState struct {
	Cycle  uint64
	Seq    uint64
	Kind   uint8
	Core   int32
	Off    uint32
	Addr   uint32
	Val    uint32
	Width  uint8
	Signed bool
	Client int32
}

func trimZeros(words []uint32) []uint32 {
	n := len(words)
	for n > 0 && words[n-1] == 0 {
		n--
	}
	return append([]uint32(nil), words[:n]...)
}

func copyU64(v []uint64) []uint64 { return append([]uint64(nil), v...) }

func copyLevels(lv [][]uint64) [][]uint64 {
	if len(lv) == 0 {
		return nil
	}
	out := make([][]uint64, len(lv))
	for k := range lv {
		out[k] = copyU64(lv[k])
	}
	return out
}

// CaptureGlobalState snapshots everything but the per-core bank images:
// link-allocator state, counters, the code bank and the in-flight event
// queue. The returned client table holds every distinct event client in
// first-reference order; the caller owns serializing and rebuilding them
// (RestoreGlobalState re-attaches by index).
func (s *System) CaptureGlobalState() (*State, []any) {
	st := &State{
		Seq:   s.seq,
		Stats: s.Stats,
		Perf:  s.Perf,
		Code:  trimZeros(s.code),

		CoreUp: copyU64(s.coreUp), CoreDown: copyU64(s.coreDown),
		BankPort: copyU64(s.bankPort), BankLocal: copyU64(s.bankLocal),
		LocalPort: copyU64(s.localPort),
		UpReq:     copyLevels(s.upReq), UpResp: copyLevels(s.upResp),
		DownReq: copyLevels(s.downReq), DownResp: copyLevels(s.downResp),
		BackUp: copyLevels(s.backUp), BackDown: copyLevels(s.backDown),
		Forward: copyU64(s.forward), Backward: copyU64(s.backward),
		ChipUpReq: copyU64(s.chipUpReq), ChipUpResp: copyU64(s.chipUpResp),
		ChipDownReq: copyU64(s.chipDownReq), ChipDownResp: copyU64(s.chipDownResp),
	}
	var clients []any
	loadIdx := make(map[LoadClient]int32)
	st.Events = make([]EventState, len(s.events))
	for i := range s.events {
		e := &s.events[i]
		es := EventState{
			Cycle: e.cycle, Seq: e.seq, Kind: uint8(e.kind), Core: e.core,
			Off: e.off, Addr: e.addr, Val: e.val,
			Width: uint8(e.width), Signed: e.signed, Client: -1,
		}
		switch {
		case e.lc != nil:
			// The two events of a shared load share one client; dedup by
			// identity (LoadClient implementations are pointers).
			id, ok := loadIdx[e.lc]
			if !ok {
				id = int32(len(clients))
				clients = append(clients, e.lc)
				loadIdx[e.lc] = id
			}
			es.Client = id
		case e.dc != nil:
			// Done clients are used by exactly one event each.
			es.Client = int32(len(clients))
			clients = append(clients, e.dc)
		}
		st.Events[i] = es
	}
	return st, clients
}

// CaptureBankRange snapshots the local and shared bank images of cores
// [lo, hi), trimmed of trailing zero words.
func (s *System) CaptureBankRange(lo, hi int) (local, shared [][]uint32) {
	local = make([][]uint32, hi-lo)
	shared = make([][]uint32, hi-lo)
	for i := lo; i < hi; i++ {
		local[i-lo] = trimZeros(s.local[i])
		shared[i-lo] = trimZeros(s.shared[i])
	}
	return local, shared
}

// RestoreBankRange installs captured bank images for cores starting at
// lo.
func (s *System) RestoreBankRange(lo int, local, shared [][]uint32) error {
	if len(local) != len(shared) || lo < 0 || lo+len(local) > len(s.local) {
		return fmt.Errorf("mem: state bank range [%d,%d+%d) does not fit the configuration", lo, lo, len(local))
	}
	restoreBank := func(dst, src []uint32, what string, i int) error {
		if len(src) > len(dst) {
			return fmt.Errorf("mem: state %s bank %d exceeds its configured size", what, i)
		}
		clear(dst)
		copy(dst, src)
		return nil
	}
	for i := range local {
		if err := restoreBank(s.local[lo+i], local[i], "local", lo+i); err != nil {
			return err
		}
		if err := restoreBank(s.shared[lo+i], shared[i], "shared", lo+i); err != nil {
			return err
		}
	}
	return nil
}

// RestoreGlobalState installs a global snapshot — everything but the
// bank images — into a freshly built System of the same configuration.
// clients must be the rebuilt client table, index-aligned with the one
// CaptureGlobalState returned.
func (s *System) RestoreGlobalState(st *State, clients []any) error {
	if len(st.Code) > len(s.code) {
		return fmt.Errorf("mem: state code image exceeds the code bank")
	}
	restoreLinks := func(dst, src []uint64, name string) error {
		if len(src) != len(dst) {
			return fmt.Errorf("mem: state link array %s does not match the configuration", name)
		}
		copy(dst, src)
		return nil
	}
	clear(s.code[:s.codeHi])
	s.codeHi = copy(s.code, st.Code)
	if len(st.Backward) > 0 {
		s.ensureBackward()
	}
	for _, l := range []struct {
		dst, src []uint64
		name     string
	}{
		{s.coreUp, st.CoreUp, "coreUp"}, {s.coreDown, st.CoreDown, "coreDown"},
		{s.bankPort, st.BankPort, "bankPort"}, {s.bankLocal, st.BankLocal, "bankLocal"},
		{s.localPort, st.LocalPort, "localPort"},
		{s.forward, st.Forward, "forward"}, {s.backward, st.Backward, "backward"},
		{s.chipUpReq, st.ChipUpReq, "chipUpReq"}, {s.chipUpResp, st.ChipUpResp, "chipUpResp"},
		{s.chipDownReq, st.ChipDownReq, "chipDownReq"}, {s.chipDownResp, st.ChipDownResp, "chipDownResp"},
	} {
		if err := restoreLinks(l.dst, l.src, l.name); err != nil {
			return err
		}
	}
	for _, l := range []struct {
		dst, src [][]uint64
		name     string
	}{
		{s.upReq, st.UpReq, "upReq"}, {s.upResp, st.UpResp, "upResp"},
		{s.downReq, st.DownReq, "downReq"}, {s.downResp, st.DownResp, "downResp"},
		{s.backUp, st.BackUp, "backUp"}, {s.backDown, st.BackDown, "backDown"},
	} {
		if len(l.src) != len(l.dst) {
			return fmt.Errorf("mem: state link levels %s do not match the configuration", l.name)
		}
		for k := range l.dst {
			if err := restoreLinks(l.dst[k], l.src[k], l.name); err != nil {
				return err
			}
		}
	}
	s.seq = st.Seq
	s.Stats = st.Stats
	s.Perf = st.Perf
	s.events = s.events[:0]
	for i := range st.Events {
		es := &st.Events[i]
		e := event{
			cycle: es.Cycle, seq: es.Seq, kind: evKind(es.Kind), core: es.Core,
			off: es.Off, addr: es.Addr, val: es.Val,
			width: Width(es.Width), signed: es.Signed,
		}
		if es.Client >= 0 {
			if int(es.Client) >= len(clients) {
				return fmt.Errorf("mem: state event %d references client %d of %d", i, es.Client, len(clients))
			}
			cl := clients[es.Client]
			switch e.kind {
			case evLocalLoad, evSharedRead, evLoadDone:
				lc, ok := cl.(LoadClient)
				if !ok {
					return fmt.Errorf("mem: state event %d needs a LoadClient, got %T", i, cl)
				}
				e.lc = lc
			default:
				dc, ok := cl.(DoneClient)
				if !ok {
					return fmt.Errorf("mem: state event %d needs a DoneClient, got %T", i, cl)
				}
				e.dc = dc
			}
		}
		s.events = append(s.events, e)
	}
	return nil
}

// Reset returns the system to its post-New state, keeping allocations,
// for warm-machine reuse across runs.
func (s *System) Reset() {
	// The code bank is 1 MiB and a program a few KiB: clear what was
	// written, not the bank.
	clear(s.code[:s.codeHi])
	s.codeHi = 0
	for i := range s.local {
		clear(s.local[i])
	}
	for i := range s.shared {
		clear(s.shared[i])
	}
	for _, l := range [][]uint64{
		s.coreUp, s.coreDown, s.bankPort, s.bankLocal, s.localPort,
		s.forward, s.backward,
		s.chipUpReq, s.chipUpResp, s.chipDownReq, s.chipDownResp,
	} {
		clear(l)
	}
	for _, lv := range [][][]uint64{
		s.upReq, s.upResp, s.downReq, s.downResp, s.backUp, s.backDown,
	} {
		for _, l := range lv {
			clear(l)
		}
	}
	clear(s.events) // release clients
	s.events = s.events[:0]
	s.seq = 0
	s.Stats = Stats{}
	s.Perf = perf.MemCounters{}
}
