package lbp

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/perf"
)

// hartState is the lifecycle state of a hardware thread.
type hartState uint8

const (
	hartFree      hartState = iota // available for p_fc/p_fn allocation
	hartAllocated                  // reserved by a fork, waiting for its start pc
	hartRunning                    // fetching/executing
	hartWaitJoin                   // ended with "keep waiting", awaits a join address
)

// uop is an in-flight instruction. uops live by value in their hart's
// reorder-buffer ring from rename to commit; nothing points at one — the
// instruction table, the rename map, the result buffer and dependence
// edges name it by its ring slot. d points at the instruction's shared,
// immutable descriptor (opcode, operand fields, pipeline class, latency
// class, memory width — see exec.go and decode.go); per-retire stages
// read it instead of re-deriving metadata from the opcode.
//
// The exported fields of uop, hart and core are the machine's saved
// state, and a checkpoint encodes them as they stand (state.go); the
// unexported ones are derived or host-side. d is the descriptor at PC
// (fetch is its only producer, and the code bank is never written after
// a load), isRet and needsRB are read off d, and slot is the uop's
// position in the ring.
type uop struct {
	d  *isa.Desc
	PC uint32

	// Source operands: value captured at rename if the producer already
	// wrote back, otherwise dep names the producer's slot and the value
	// is captured at that uop's write back. Nothing writes them after
	// issue, so a committing p_ret reads its ra and t0 here.
	Src1, Src2 uint32

	Value uint32 // register result (written back through the rb)

	Dep1, Dep2 uint8 // producer slots, noSlot once captured
	slot       uint8 // the uop's own slot (a uop never moves in the ring)

	Issued  bool
	Done    bool // retired from the execution stage (commit-eligible)
	needsRB bool
	MemWait bool // load in flight; rb release gated on the response
	isRet   bool
}

// noSlot is the "none" slot number: no producer to wait for, no
// in-flight writer of a register, nothing in the result buffer.
// Config.Validate holds the reorder buffer to 64 slots, below it.
const noSlot = 0xFF

func (u *uop) ready() bool { return u.Dep1 == noSlot && u.Dep2 == noSlot }

// remoteRB is one of the hart's addressable result buffers fed by p_swre
// messages from later harts; implemented as a bounded FIFO.
type remoteRB struct {
	Vals []uint32
}

// hart is one hardware thread of a core.
type hart struct {
	// The fields the stage predicates read on every visit come first,
	// packed together.
	State     hartState
	bit       uint8 // 1 << idx: the hart's bit in the core's candidate masks
	PCValid   bool  // next pc known
	HasIB     bool  // IB holds an instruction
	SyncmWait bool  // p_syncm decoded: fetch blocked until memory drains

	// Execution/result buffer: at most one value-producing instruction is
	// in flight per hart (the paper's 1-deep result buffer).
	Exec uint8 // slot in the result buffer, or noSlot

	HasPred    bool // must receive an ending-hart signal before p_ret commits
	PredSignal bool // signal received

	// Instruction table: bit s is set while ring slot s holds a renamed,
	// unissued uop. The ring is in rename order, so the table is an
	// ordered subset of it, walked from RobHead (itAge).
	IT uint64

	// Reorder buffer: a fixed-capacity ring of uop values (New makes it
	// the hart's share of one slab), len == Config.ROBEntries. The slots
	// outside the RobN entries from RobHead are dead: nothing reads them,
	// and Checkpoint zeroes them.
	Rob     []uop
	RobHead int
	RobN    int

	PCReady     uint64 // earliest fetch cycle for the current pc
	ExecReadyAt uint64
	InflightMem int // outstanding memory accesses (loads+stores+CV writes)
	PC          uint32

	core *core
	idx  int    // hart index within the core
	gid  uint32 // global hart number (4*core+idx)

	Regs       [32]uint32
	LastWriter [32]uint8 // slot of the youngest in-flight writer, or noSlot

	IB uop // fetched, not yet renamed (the decode-stage buffer)

	Remote      []remoteRB
	StartedBy   uint32 // global hart that forked us (diagnostics)
	EndingEpoch uint64 // cycle of last lifecycle change (diagnostics)

	// LoadVal is the bank value of the load in flight, parked between
	// its bank service and its response (handler.go). A hart has at most
	// one load in flight: the 1-deep result buffer gates issue until the
	// response returns, and that load is the one in Exec.
	LoadVal uint32

	// Performance counters (always counted; reported when profiling is
	// enabled). LastCommit marks the cycle of the hart's latest commit so
	// the per-cycle stall attribution can tell retiring cycles apart.
	perf       *perf.HartCounters
	LastCommit uint64
}

// ---- reorder-buffer ring ----------------------------------------------

// robSlot returns the slot of the i-th oldest entry (0 = front);
// i must be < len(Rob).
func (h *hart) robSlot(i int) int {
	s := h.RobHead + i
	if s >= len(h.Rob) {
		s -= len(h.Rob)
	}
	return s
}

// robAge returns the position of slot s in ROB order (0 = oldest).
func (h *hart) robAge(s int) int {
	i := s - h.RobHead
	if i < 0 {
		i += len(h.Rob)
	}
	return i
}

// robFront returns the oldest entry; RobN must be nonzero.
func (h *hart) robFront() *uop { return &h.Rob[h.RobHead] }

// robPush claims the slot behind the newest entry; the caller checks
// robFull and fills the slot.
func (h *hart) robPush() int {
	s := h.robSlot(h.RobN)
	h.RobN++
	return s
}

// robPopFront releases the oldest entry and returns it. The slot keeps
// its value until the next rename refills it.
func (h *hart) robPopFront() *uop {
	u := &h.Rob[h.RobHead]
	if h.RobHead++; h.RobHead == len(h.Rob) {
		h.RobHead = 0
	}
	h.RobN--
	return u
}

// robFull reports whether the reorder buffer is at capacity.
func (h *hart) robFull(cfg *Config) bool { return h.RobN >= cfg.ROBEntries }

// itFull reports whether the instruction table is at capacity.
func (h *hart) itFull(cfg *Config) bool { return bits.OnesCount64(h.IT) >= cfg.ITEntries }

// itAge returns the instruction table as a mask over ROB positions:
// bit i is set while the i-th oldest entry waits in the table, so the
// lowest set bit is the oldest.
func (h *hart) itAge() uint64 {
	n, hd := uint(len(h.Rob)), uint(h.RobHead)
	return (h.IT>>hd | h.IT<<(n-hd)) & (1<<n - 1)
}

// setState transitions the hart lifecycle state, maintaining the owning
// core's busy-hart count so the machine can skip fully-idle cores (the
// active-core fast path; skipping is exact because every pipeline stage is
// a no-op on a core whose harts are all free). A core gaining its first
// busy hart or losing its last one marks the machine's active list stale.
func (h *hart) setState(s hartState) {
	old := h.State
	h.State = s
	if (old == hartFree) == (s == hartFree) {
		return
	}
	c := h.core
	if s == hartFree {
		c.busy--
		if c.busy == 0 {
			c.m.activeDirty = true
		}
		// A free hart is what a p_fc on this core or a p_fn on the
		// previous one may be waiting for.
		c.issueC = allHarts
		if c.idx > 0 {
			c.m.cores[c.idx-1].issueC = allHarts
		}
	} else {
		c.busy++
		if c.busy == 1 {
			c.m.activeDirty = true
		}
	}
}

func (h *hart) reset() {
	h.setState(hartFree)
	h.PC, h.PCValid, h.PCReady = 0, false, 0
	h.SyncmWait = false
	h.Regs = [32]uint32{}
	for r := range h.LastWriter {
		h.LastWriter[r] = noSlot
	}
	h.HasIB = false
	h.IT = 0
	h.RobHead, h.RobN = 0, 0
	h.Exec = noSlot
	h.LoadVal = 0
	h.InflightMem = 0
	h.HasPred, h.PredSignal = false, false
	for i := range h.Remote {
		h.Remote[i].Vals = h.Remote[i].Vals[:0]
	}
}

// clearDead zeroes the state nothing reads — the ring slots outside the
// live window, a fetch buffer that holds nothing — so that a checkpoint
// carries the live state only.
func (h *hart) clearDead() {
	for i := h.RobN; i < len(h.Rob); i++ {
		h.Rob[h.robSlot(i)] = uop{}
	}
	if !h.HasIB {
		h.IB = uop{}
	}
}

// derive rebuilds the unsaved fields of a restored hart's uops: each
// ring slot's number, the descriptor at each uop's pc (what fetch
// stored; nil where the pc is unmapped) and what rename reads off it.
func (h *hart) derive() {
	m := h.core.m
	for s := range h.Rob {
		u := &h.Rob[s]
		u.slot = uint8(s)
		if u.d = m.descAt(u.PC); u.d != nil {
			u.isRet, u.needsRB = u.d.IsPRet(), u.d.NeedsRB()
		}
	}
	h.IB.d = m.descAt(h.IB.PC)
}

// allocate prepares a free hart for a fork: registers cleared, stack
// pointer set to the canonical initial value, waiting for a start pc.
func (h *hart) allocate(cfg *Config, by uint32, now uint64) {
	h.reset()
	h.setState(hartAllocated)
	h.Regs[2] = cfg.SPInit(h.idx)
	h.HasPred = true
	h.StartedBy = by
	h.EndingEpoch = now
}

// start begins fetching at pc (delivered by a p_jalr/p_jal start message).
func (h *hart) start(pc uint32, now uint64) {
	h.setState(hartRunning)
	h.PC = pc
	h.PCValid = true
	h.PCReady = now
	h.core.fetchC |= h.bit
	h.EndingEpoch = now
}

// free releases the hart for reallocation.
func (h *hart) free(now uint64) {
	h.setState(hartFree)
	h.PCValid = false
	h.HasIB = false
	h.EndingEpoch = now
}

// wake captures a written-back value in every dependent instruction:
// only the instruction table's waiting entries can depend on it.
func (h *hart) wake(producer uint8, value uint32) {
	for o := h.IT; o != 0; o &= o - 1 {
		u := &h.Rob[bits.TrailingZeros64(o)]
		if u.Dep1 == producer {
			u.Src1 = value
			u.Dep1 = noSlot
		}
		if u.Dep2 == producer {
			u.Src2 = value
			u.Dep2 = noSlot
		}
	}
}

// pushRemote appends a p_swre value to result buffer idx; reports overflow.
func (h *hart) pushRemote(idx int, v uint32, depth int) bool {
	if idx < 0 || idx >= len(h.Remote) {
		return false
	}
	rb := &h.Remote[idx]
	if len(rb.Vals) >= depth {
		return false
	}
	rb.Vals = append(rb.Vals, v)
	return true
}

// popRemote removes and returns the head of result buffer idx.
func (h *hart) popRemote(idx int) (uint32, bool) {
	if idx < 0 || idx >= len(h.Remote) || len(h.Remote[idx].Vals) == 0 {
		return 0, false
	}
	v := h.Remote[idx].Vals[0]
	h.Remote[idx].Vals = h.Remote[idx].Vals[1:]
	return v, true
}
