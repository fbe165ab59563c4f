package lbp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/trace"
)

// Checkpoint/restore. A machine paused at a cycle boundary (after New,
// after a completed run, or wherever Advance stopped) is pure data and
// the predecoded code image, which is recomputed from the code bank. An
// in-flight memory event names its client by value (a hart's global
// number, or the control message it carries), so the memory system
// saves its events as they stand. A uop is named by its reorder-buffer
// slot everywhere in a hart (the instruction table, the rename map, the
// result buffer, dependence edges, an in-flight load), and a slot saves
// as its logical ROB index, (slot − robHead) mod len, so the format
// does not depend on where the ring's head happened to be. Everything
// else serializes by value with encoding/gob.
//
// One format, one rule (DESIGN.md §"Serializable machine state"): any
// change to a saved struct — a field added, removed, renamed, retyped or
// reordered, or the meaning or replay order of one — bumps
// checkpointVersion, and Restore, the only decoder of machine state,
// refuses every other version outright. gob names each exported
// field of each saved struct in the stream's type descriptors, so even
// deleting a never-written field changes the bytes.

// checkpointVersion is the format number embedded in every checkpoint
// this build writes.
const checkpointVersion = 5

// checkpointMagic prefixes every checkpoint stream; bytes that do not
// start with it are not a checkpoint of this format.
var checkpointMagic = [8]byte{'L', 'B', 'P', 'C', 'K', 'P', 'T', '5'}

// savedUop flattens a uop: the instruction rebuilds from its raw word,
// the pipeline class from the opcode, and the dependence edges from ROB
// indices (-1 = resolved). Two fields are not kept in the ring, so save
// derives them and restore checks them: Seq, the rename sequence number
// (the ROB holds the hart's last renames in order, so it follows from
// the hart's counter), and a p_ret's RetRA and RetT0, which are its
// sources once it has issued and zero before.
type savedUop struct {
	Raw     uint32
	PC      uint32
	Seq     uint64
	Src1    uint32
	Src2    uint32
	Dep1    int32
	Dep2    int32
	Issued  bool
	Done    bool
	Value   uint32
	NeedsRB bool
	MemWait bool
	IsRet   bool
	RetRA   uint32
	RetT0   uint32
}

// savedHart flattens a hart. IT, LastWriter and Exec reference uops by
// ROB index; the fetched, not yet renamed instruction is its word and pc
// (IBRaw, IBPC), all fetch fills in. LoadVal is the parked bank value of
// a load in flight.
type savedHart struct {
	State       uint8
	PC          uint32
	PCValid     bool
	PCReady     uint64
	SyncmWait   bool
	Regs        [32]uint32
	LastWriter  [32]int32
	HasIB       bool
	IBRaw       uint32
	IBPC        uint32
	Rob         []savedUop
	IT          []int32
	Seq         uint64
	Exec        int32
	ExecReadyAt uint64
	LoadVal     uint32
	InflightMem int32
	HasPred     bool
	PredSignal  bool
	Remote      [][]uint32
	StartedBy   uint32
	EndingEpoch uint64
	LastCommit  uint64
}

// savedCore holds the per-core round-robin pointers and statistic
// counters (busy counts and the active list are derived state; fetches
// are the core's perf.StageFetch count).
type savedCore struct {
	FetchRR  int32
	RenameRR int32
	IssueRR  int32
	WbRR     int32
	CommitRR int32
	Forks    uint64
	Sends    uint64
}

// savedMachine is a version-5 stream after its magic, one gob value:
// configuration, clock and counters, the memory system (its banks as
// their attached pages, its in-flight events with their clients), the
// trace chain, device state, and every core, hart and performance
// counter of the machine.
type savedMachine struct {
	Version    int
	Cfg        Config
	Cycle      uint64
	Running    bool
	Exited     bool
	HaltMsg    string
	ErrMsg     string
	Progress   uint64
	Stats      Stats
	Profiling  bool
	DecodedLen uint32
	Mem        mem.State
	HasTrace   bool
	Trace      trace.RecorderState
	Devices    [][]byte
	Cores      []savedCore
	Harts      []savedHart
	HPerf      []perf.HartCounters
	CPerf      []perf.CoreCounters
}

// Checkpoint serializes the full architectural state of the machine:
// hart registers, reorder buffers and rename maps, in-flight memory
// events, link-allocator state and bank pages, device state, cycle and
// performance counters, and the trace-digest chain. Restoring the bytes
// with Restore and advancing reproduces the uninterrupted run
// bit-exactly. Host-side execution knobs (fast-forward) are not part of
// the state — they never affect simulated results.
//
// The bytes are the version-5 format: the magic tag, then one
// gob-encoded savedMachine.
func (m *Machine) Checkpoint() ([]byte, error) {
	m.flushIdle()
	if len(m.late) > 0 {
		return nil, fmt.Errorf("lbp: checkpoint mid-cycle: %d phase-B items unapplied", len(m.late))
	}
	memState := m.Mem.CaptureGlobalState()
	sm := savedMachine{
		Version:    checkpointVersion,
		Cfg:        m.cfg,
		Cycle:      m.cycle,
		Running:    m.running,
		Exited:     m.exited,
		HaltMsg:    m.haltMsg,
		Progress:   m.progress,
		Stats:      m.stats,
		Profiling:  m.profiling,
		DecodedLen: uint32(len(m.descs)),
		Mem:        *memState,
		Cores:      make([]savedCore, len(m.cores)),
		Harts:      make([]savedHart, len(m.harts)),
		HPerf:      m.hperf,
		CPerf:      m.cperf,
	}
	if m.err != nil {
		sm.ErrMsg = m.err.Error()
	}
	if m.rec != nil {
		sm.HasTrace = true
		sm.Trace = m.rec.State()
	}
	sm.Devices = make([][]byte, len(m.devices))
	for i, d := range m.devices {
		s, ok := d.(Stateful)
		if !ok {
			return nil, fmt.Errorf("lbp: device %d (%T) does not support checkpointing", i, d)
		}
		b, err := s.DeviceState()
		if err != nil {
			return nil, fmt.Errorf("lbp: device %d: %w", i, err)
		}
		sm.Devices[i] = b
	}
	for i, c := range m.cores {
		sm.Cores[i] = savedCore{
			FetchRR: int32(c.fetchRR), RenameRR: int32(c.renameRR),
			IssueRR: int32(c.issueRR), WbRR: int32(c.wbRR), CommitRR: int32(c.commitRR),
			Forks: c.statForks, Sends: c.statSends,
		}
	}
	for i, h := range m.harts {
		sm.Harts[i] = saveHart(h)
	}
	var buf bytes.Buffer
	buf.Write(checkpointMagic[:])
	if err := gob.NewEncoder(&buf).Encode(&sm); err != nil {
		return nil, fmt.Errorf("lbp: encoding checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// CheckpointError is the type of every error Restore returns: whatever
// the bytes — another format or version, a truncated stream, a
// configuration no entry point would build, state that contradicts its
// own configuration — the caller gets one of these or a machine.
type CheckpointError struct{ Err error }

func (e *CheckpointError) Error() string { return e.Err.Error() }
func (e *CheckpointError) Unwrap() error { return e.Err }

// Restore rebuilds a machine from Checkpoint bytes. Devices are not
// serializable as configuration, so the caller passes freshly built,
// identically configured devices in the original AddDevice order; their
// mutable state is restored from the checkpoint before attachment.
func Restore(data []byte, devices ...Device) (*Machine, error) {
	m, err := restore(data, devices)
	if err != nil {
		return nil, &CheckpointError{err}
	}
	return m, nil
}

func restore(data []byte, devices []Device) (*Machine, error) {
	if !bytes.HasPrefix(data, checkpointMagic[:]) {
		return nil, fmt.Errorf("lbp: not a version-%d checkpoint (no %q magic)", checkpointVersion, checkpointMagic)
	}
	var sm savedMachine
	if err := gob.NewDecoder(bytes.NewReader(data[len(checkpointMagic):])).Decode(&sm); err != nil {
		return nil, fmt.Errorf("lbp: decoding checkpoint: %w", err)
	}
	if sm.Version != checkpointVersion {
		return nil, fmt.Errorf("lbp: checkpoint version %d, this build supports %d",
			sm.Version, checkpointVersion)
	}
	if len(devices) != len(sm.Devices) {
		return nil, fmt.Errorf("lbp: checkpoint was taken with %d devices, restore got %d",
			len(sm.Devices), len(devices))
	}
	// The configuration sizes every allocation New makes, so it is held
	// to the bounds of a machine an entry point would build before
	// anything is built from it.
	if err := sm.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("lbp: checkpoint configuration: %w", err)
	}
	if len(sm.Cores) != sm.Cfg.Cores || len(sm.CPerf) != sm.Cfg.Cores ||
		len(sm.Harts) != sm.Cfg.Cores*HartsPerCore || len(sm.HPerf) != len(sm.Harts) {
		return nil, fmt.Errorf("lbp: checkpoint holds %d cores, %d harts, %d core and %d hart counters; its configuration has %d cores",
			len(sm.Cores), len(sm.Harts), len(sm.CPerf), len(sm.HPerf), sm.Cfg.Cores)
	}
	m := New(sm.Cfg)
	m.cycle = sm.Cycle
	m.running = sm.Running
	m.exited = sm.Exited
	m.haltMsg = sm.HaltMsg
	if sm.ErrMsg != "" {
		m.err = faultError(sm.ErrMsg)
	}
	m.progress = sm.Progress
	m.stats = sm.Stats
	if sm.Profiling {
		m.EnableProfiling()
	}
	for i, sc := range sm.Cores {
		for _, rr := range []int32{sc.FetchRR, sc.RenameRR, sc.IssueRR, sc.WbRR, sc.CommitRR} {
			// The stages index the core's harts from these.
			if rr < 0 || rr >= HartsPerCore {
				return nil, fmt.Errorf("lbp: checkpoint core %d has a round-robin pointer of %d", i, rr)
			}
		}
		c := m.cores[i]
		c.fetchRR, c.renameRR = int(sc.FetchRR), int(sc.RenameRR)
		c.issueRR, c.wbRR, c.commitRR = int(sc.IssueRR), int(sc.WbRR), int(sc.CommitRR)
		c.statForks, c.statSends = sc.Forks, sc.Sends
	}
	for i := range sm.Harts {
		if err := restoreHart(m.harts[i], &sm.Harts[i]); err != nil {
			return nil, err
		}
	}
	copy(m.hperf, sm.HPerf)
	copy(m.cperf, sm.CPerf)
	if err := m.checkClients(sm.Mem.Events); err != nil {
		return nil, err
	}
	if err := m.Mem.RestoreGlobalState(&sm.Mem, sm.Cycle); err != nil {
		return nil, err
	}
	if err := m.finishRestore(&sm, devices); err != nil {
		return nil, err
	}
	return m, nil
}

// finishRestore is the restore tail: decode the restored code bank,
// refresh the active list, reattach the trace recorder and the caller's
// devices.
func (m *Machine) finishRestore(sm *savedMachine, devices []Device) error {
	if sm.DecodedLen > m.cfg.Mem.CodeBytes/4 {
		return fmt.Errorf("lbp: checkpoint decoded image exceeds the code bank")
	}
	m.decodeCode(int(sm.DecodedLen))
	// The restored counters are settled through m.cycle (Checkpoint
	// flushes the idle credit), so every idle span restarts after it.
	for _, c := range m.cores {
		c.idleFrom = 0
		// The harts arrived mid-flight: every one is a candidate of every
		// stage until the stage's scan says otherwise.
		c.fetchC, c.renameC, c.issueC, c.wbC, c.commitC = allHarts, allHarts, allHarts, allHarts, allHarts
	}
	m.rebuildActive(m.cycle + 1)
	if sm.HasTrace {
		m.SetTrace(trace.NewFromState(sm.Trace))
	}
	for i, d := range devices {
		s, ok := d.(Stateful)
		if !ok {
			return fmt.Errorf("lbp: restore device %d (%T) does not support checkpointing", i, d)
		}
		if err := s.RestoreDeviceState(sm.Devices[i]); err != nil {
			return fmt.Errorf("lbp: restore device %d: %w", i, err)
		}
		m.AddDevice(d)
	}
	return nil
}

// robIndex returns the logical position of ring slot s in ROB order
// (0 = oldest; -1 for noSlot). Logical positions keep the saved format
// independent of the ring's physical head.
func robIndex(h *hart, s uint8) int32 {
	if s == noSlot {
		return -1
	}
	return int32(h.robAge(int(s)))
}

// slotOf is robIndex's inverse on a restored hart, whose ring restore
// fills from slot 0: the slot is the index (-1 = noSlot).
func slotOf(idx int32) uint8 {
	if idx < 0 {
		return noSlot
	}
	return uint8(idx)
}

func saveHart(h *hart) savedHart {
	sh := savedHart{
		State: uint8(h.state), PC: h.pc, PCValid: h.pcValid, PCReady: h.pcReadyCycle,
		SyncmWait: h.syncmWait, Regs: h.regs,
		Seq: h.seq, Exec: robIndex(h, h.exec), ExecReadyAt: h.execReadyAt, LoadVal: h.loadVal,
		InflightMem: int32(h.inflightMem), HasPred: h.hasPred, PredSignal: h.predSignal,
		StartedBy:   h.startedBy,
		EndingEpoch: h.endingEpoch, LastCommit: h.lastCommit,
	}
	sh.Rob = make([]savedUop, h.robN)
	for i := range sh.Rob {
		u := &h.rob[h.robSlot(i)]
		sh.Rob[i] = savedUop{
			Raw: u.d.Inst.Raw, PC: u.pc, Seq: h.seq - uint64(h.robN-i),
			Src1: u.src1, Src2: u.src2, Dep1: robIndex(h, u.dep1), Dep2: robIndex(h, u.dep2),
			Issued: u.issued, Done: u.done, Value: u.value,
			NeedsRB: u.needsRB, MemWait: u.memWait,
			IsRet: u.isRet,
		}
		if u.isRet && u.issued {
			sh.Rob[i].RetRA, sh.Rob[i].RetT0 = u.src1, u.src2
		}
	}
	sh.IT = make([]int32, 0, bits.OnesCount64(h.it))
	for o := h.itAge(); o != 0; o &= o - 1 {
		sh.IT = append(sh.IT, int32(bits.TrailingZeros64(o)))
	}
	for r, s := range h.lastWriter {
		sh.LastWriter[r] = robIndex(h, s)
	}
	if h.hasIB {
		sh.HasIB, sh.IBRaw, sh.IBPC = true, h.ib.d.Inst.Raw, h.ib.pc
	}
	sh.Remote = make([][]uint32, len(h.remote))
	for i := range h.remote {
		sh.Remote[i] = append([]uint32(nil), h.remote[i].vals...)
	}
	return sh
}

func restoreHart(h *hart, sh *savedHart) error {
	if sh.State > uint8(hartWaitJoin) {
		return fmt.Errorf("lbp: checkpoint hart %d has unknown state %d", h.gid, sh.State)
	}
	if len(sh.Remote) != len(h.remote) {
		return fmt.Errorf("lbp: checkpoint hart %d has %d result buffers, machine has %d",
			h.gid, len(sh.Remote), len(h.remote))
	}
	cfg := &h.core.m.cfg
	for i := range sh.Remote {
		if len(sh.Remote[i]) > cfg.RBDepth {
			return fmt.Errorf("lbp: checkpoint hart %d holds %d values in result buffer %d, depth is %d",
				h.gid, len(sh.Remote[i]), i, cfg.RBDepth)
		}
	}
	n := len(sh.Rob)
	if len(sh.IT) > cfg.ITEntries || n > len(h.rob) {
		return fmt.Errorf("lbp: checkpoint hart %d has %d instruction-table and %d rob entries, capacity is %d and %d",
			h.gid, len(sh.IT), n, cfg.ITEntries, len(h.rob))
	}
	h.setState(hartState(sh.State)) // keeps the core busy count right
	h.pc, h.pcValid, h.pcReadyCycle = sh.PC, sh.PCValid, sh.PCReady
	h.syncmWait = sh.SyncmWait
	h.regs = sh.Regs
	h.seq = sh.Seq
	h.execReadyAt = sh.ExecReadyAt
	h.loadVal = sh.LoadVal
	h.inflightMem = int(sh.InflightMem)
	h.hasPred, h.predSignal = sh.HasPred, sh.PredSignal
	h.startedBy = sh.StartedBy
	h.endingEpoch = sh.EndingEpoch
	h.lastCommit = sh.LastCommit
	h.robHead, h.robN = 0, n
	for i := range sh.Rob {
		// The descriptor is decoded standalone (content-identical to the
		// image's entry) because harts restore before the code image
		// does. A dependence names an older entry: the producer renamed
		// first.
		su := &sh.Rob[i]
		if want := h.seq - uint64(n-i); su.Seq != want {
			return fmt.Errorf("lbp: checkpoint hart %d: rob entry %d has seq %d, rename order gives %d",
				h.gid, i, su.Seq, want)
		}
		if su.Dep1 >= int32(i) || su.Dep2 >= int32(i) {
			return fmt.Errorf("lbp: checkpoint hart %d: rob entry %d depends on entries %d and %d, not older ones",
				h.gid, i, su.Dep1, su.Dep2)
		}
		var ra, t0 uint32
		if su.IsRet && su.Issued {
			ra, t0 = su.Src1, su.Src2
		}
		if su.RetRA != ra || su.RetT0 != t0 {
			return fmt.Errorf("lbp: checkpoint hart %d: rob entry %d has p_ret operands %#x, %#x, not %#x, %#x",
				h.gid, i, su.RetRA, su.RetT0, ra, t0)
		}
		d := isa.DecodeDesc(su.Raw)
		h.rob[i] = uop{
			d: &d, pc: su.PC, slot: uint8(i),
			src1: su.Src1, src2: su.Src2, dep1: slotOf(su.Dep1), dep2: slotOf(su.Dep2),
			issued: su.Issued, done: su.Done, value: su.Value,
			needsRB: su.NeedsRB, memWait: su.MemWait,
			isRet: su.IsRet,
		}
	}
	// The instruction table is a mask over the ring, which holds each
	// entry once and walks it in rename order: the saved list ascends,
	// and only an unissued uop waits in it.
	h.it = 0
	for k, idx := range sh.IT {
		if idx < 0 || int(idx) >= n || (k > 0 && idx <= sh.IT[k-1]) {
			return fmt.Errorf("lbp: checkpoint hart %d: instruction-table entries %v do not ascend within the %d rob entries",
				h.gid, sh.IT, n)
		}
		if h.rob[idx].issued {
			return fmt.Errorf("lbp: checkpoint hart %d: instruction-table entry %d is issued", h.gid, idx)
		}
		h.it |= 1 << idx
	}
	if idx := slices.Max(append(sh.LastWriter[:], sh.Exec)); idx >= int32(n) {
		return fmt.Errorf("lbp: checkpoint hart %d names rob entry %d of %d", h.gid, idx, n)
	}
	for r, idx := range sh.LastWriter {
		h.lastWriter[r] = slotOf(idx)
	}
	h.exec = slotOf(sh.Exec)
	h.hasIB = sh.HasIB
	if sh.HasIB {
		d := isa.DecodeDesc(sh.IBRaw)
		h.ib = uop{d: &d, pc: sh.IBPC}
	}
	for i := range h.remote {
		h.remote[i].vals = append(h.remote[i].vals[:0], sh.Remote[i]...)
	}
	return nil
}

// checkClients holds the clients of the in-flight memory events to the
// restored harts, which the handler indexes by them: every event names a
// hart that exists, a load's hart holds the load in its result buffer
// (LoadDone writes the value there), and a message is of a kind Deliver
// performs. The memory system checks the rest of each event.
func (m *Machine) checkClients(events []mem.EventState) error {
	for i := range events {
		es := &events[i]
		if int(es.Hart) >= len(m.harts) {
			return fmt.Errorf("lbp: checkpoint event %d names hart %d of %d", i, es.Hart, len(m.harts))
		}
		if es.Load() && m.harts[es.Hart].exec == noSlot {
			return fmt.Errorf("lbp: checkpoint event %d is a load of hart %d, whose result buffer is empty", i, es.Hart)
		}
		if es.MsgKind > ctlSwre {
			return fmt.Errorf("lbp: checkpoint event %d has unknown control-message kind %d", i, es.MsgKind)
		}
	}
	return nil
}
