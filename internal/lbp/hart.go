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
type uop struct {
	d  *isa.Desc
	pc uint32

	// Source operands: value captured at rename if the producer already
	// wrote back, otherwise dep names the producer's slot and the value
	// is captured at that uop's write back. Nothing writes them after
	// issue, so a committing p_ret reads its ra and t0 here.
	src1, src2 uint32

	value uint32 // register result (written back through the rb)

	dep1, dep2 uint8 // producer slots, noSlot once captured
	slot       uint8 // the uop's own slot (a uop never moves in the ring)

	issued  bool
	done    bool // retired from the execution stage (commit-eligible)
	needsRB bool
	memWait bool // load in flight; rb release gated on the response
	isRet   bool
}

// noSlot is the "none" slot number: no producer to wait for, no
// in-flight writer of a register, nothing in the result buffer.
// Config.Validate holds the reorder buffer to 64 slots, below it.
const noSlot = 0xFF

func (u *uop) ready() bool { return u.dep1 == noSlot && u.dep2 == noSlot }

// remoteRB is one of the hart's addressable result buffers fed by p_swre
// messages from later harts; implemented as a bounded FIFO.
type remoteRB struct {
	vals []uint32
}

// hart is one hardware thread of a core.
type hart struct {
	// The fields the stage predicates read on every visit come first,
	// packed together.
	state     hartState
	bit       uint8 // 1 << idx: the hart's bit in the core's candidate masks
	pcValid   bool  // next pc known
	hasIB     bool  // ib holds an instruction
	syncmWait bool  // p_syncm decoded: fetch blocked until memory drains

	// Execution/result buffer: at most one value-producing instruction is
	// in flight per hart (the paper's 1-deep result buffer).
	exec uint8 // slot in the result buffer, or noSlot

	hasPred    bool // must receive an ending-hart signal before p_ret commits
	predSignal bool // signal received

	// Instruction table: bit s is set while ring slot s holds a renamed,
	// unissued uop. The ring is in rename order, so the table is an
	// ordered subset of it, walked from robHead (itAge).
	it uint64

	// Reorder buffer: a fixed-capacity ring of uop values, the hart's
	// share of the machine's slab (New), len == Config.ROBEntries.
	rob     []uop
	robHead int
	robN    int

	pcReadyCycle uint64 // earliest fetch cycle for the current pc
	execReadyAt  uint64
	inflightMem  int // outstanding memory accesses (loads+stores+CV writes)
	pc           uint32

	core *core
	idx  int    // hart index within the core
	gid  uint32 // global hart number (4*core+idx)

	regs       [32]uint32
	lastWriter [32]uint8 // slot of the youngest in-flight writer, or noSlot

	ib uop // fetched, not yet renamed (the decode-stage buffer)

	seq uint64 // rename counter

	remote      []remoteRB
	startedBy   uint32 // global hart that forked us (diagnostics)
	endingEpoch uint64 // cycle of last lifecycle change (diagnostics)

	// loadVal is the bank value of the load in flight, parked between
	// its bank service and its response (handler.go). A hart has at most
	// one load in flight: the 1-deep result buffer gates issue until the
	// response returns, and that load is the one in h.exec.
	loadVal uint32

	// Performance counters (always counted; reported when profiling is
	// enabled). lastCommit marks the cycle of the hart's latest commit so
	// the per-cycle stall attribution can tell retiring cycles apart.
	perf       *perf.HartCounters
	lastCommit uint64
}

// ---- reorder-buffer ring ----------------------------------------------

// robSlot returns the slot of the i-th oldest entry (0 = front);
// i must be < len(rob).
func (h *hart) robSlot(i int) int {
	s := h.robHead + i
	if s >= len(h.rob) {
		s -= len(h.rob)
	}
	return s
}

// robAge returns the position of slot s in ROB order (0 = oldest).
func (h *hart) robAge(s int) int {
	i := s - h.robHead
	if i < 0 {
		i += len(h.rob)
	}
	return i
}

// robFront returns the oldest entry; robN must be nonzero.
func (h *hart) robFront() *uop { return &h.rob[h.robHead] }

// robPush claims the slot behind the newest entry; the caller checks
// robFull and fills the slot.
func (h *hart) robPush() int {
	s := h.robSlot(h.robN)
	h.robN++
	return s
}

// robPopFront releases the oldest entry and returns it. The slot keeps
// its value until the next rename refills it.
func (h *hart) robPopFront() *uop {
	u := &h.rob[h.robHead]
	if h.robHead++; h.robHead == len(h.rob) {
		h.robHead = 0
	}
	h.robN--
	return u
}

// robFull reports whether the reorder buffer is at capacity.
func (h *hart) robFull(cfg *Config) bool { return h.robN >= cfg.ROBEntries }

// itFull reports whether the instruction table is at capacity.
func (h *hart) itFull(cfg *Config) bool { return bits.OnesCount64(h.it) >= cfg.ITEntries }

// itAge returns the instruction table as a mask over ROB positions:
// bit i is set while the i-th oldest entry waits in the table, so the
// lowest set bit is the oldest.
func (h *hart) itAge() uint64 {
	n, hd := uint(len(h.rob)), uint(h.robHead)
	return (h.it>>hd | h.it<<(n-hd)) & (1<<n - 1)
}

// setState transitions the hart lifecycle state, maintaining the owning
// core's busy-hart count so the machine can skip fully-idle cores (the
// active-core fast path; skipping is exact because every pipeline stage is
// a no-op on a core whose harts are all free). A core gaining its first
// busy hart or losing its last one marks the machine's active list stale.
func (h *hart) setState(s hartState) {
	old := h.state
	h.state = s
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

func (h *hart) reset(cfg *Config) {
	h.setState(hartFree)
	h.pc, h.pcValid, h.pcReadyCycle = 0, false, 0
	h.syncmWait = false
	h.regs = [32]uint32{}
	for r := range h.lastWriter {
		h.lastWriter[r] = noSlot
	}
	h.hasIB = false
	h.it = 0
	h.robHead, h.robN = 0, 0
	h.exec = noSlot
	h.loadVal = 0
	h.inflightMem = 0
	h.hasPred, h.predSignal = false, false
	for i := range h.remote {
		h.remote[i].vals = h.remote[i].vals[:0]
	}
}

// allocate prepares a free hart for a fork: registers cleared, stack
// pointer set to the canonical initial value, waiting for a start pc.
func (h *hart) allocate(cfg *Config, by uint32, now uint64) {
	h.reset(cfg)
	h.setState(hartAllocated)
	h.regs[2] = cfg.SPInit(h.idx)
	h.hasPred = true
	h.startedBy = by
	h.endingEpoch = now
}

// start begins fetching at pc (delivered by a p_jalr/p_jal start message).
func (h *hart) start(pc uint32, now uint64) {
	h.setState(hartRunning)
	h.pc = pc
	h.pcValid = true
	h.pcReadyCycle = now
	h.core.fetchC |= h.bit
	h.endingEpoch = now
}

// free releases the hart for reallocation.
func (h *hart) free(now uint64) {
	h.setState(hartFree)
	h.pcValid = false
	h.hasIB = false
	h.endingEpoch = now
}

// wake captures a written-back value in every dependent instruction:
// only the instruction table's waiting entries can depend on it.
func (h *hart) wake(producer uint8, value uint32) {
	for o := h.it; o != 0; o &= o - 1 {
		u := &h.rob[bits.TrailingZeros64(o)]
		if u.dep1 == producer {
			u.src1 = value
			u.dep1 = noSlot
		}
		if u.dep2 == producer {
			u.src2 = value
			u.dep2 = noSlot
		}
	}
}

// pushRemote appends a p_swre value to result buffer idx; reports overflow.
func (h *hart) pushRemote(idx int, v uint32, depth int) bool {
	if idx < 0 || idx >= len(h.remote) {
		return false
	}
	rb := &h.remote[idx]
	if len(rb.vals) >= depth {
		return false
	}
	rb.vals = append(rb.vals, v)
	return true
}

// popRemote removes and returns the head of result buffer idx.
func (h *hart) popRemote(idx int) (uint32, bool) {
	if idx < 0 || idx >= len(h.remote) || len(h.remote[idx].vals) == 0 {
		return 0, false
	}
	v := h.remote[idx].vals[0]
	h.remote[idx].vals = h.remote[idx].vals[1:]
	return v, true
}
