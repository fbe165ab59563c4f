package lbp

import (
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

// uop is an in-flight instruction. uops live in the per-hart instruction
// table from rename to issue and in the reorder buffer until commit.
// d points at the instruction's shared, immutable descriptor (opcode,
// operand fields, pipeline class, latency class, memory width — see
// exec.go and decode.go); per-retire stages read it instead of
// re-deriving metadata from the opcode.
type uop struct {
	d   *isa.Desc
	pc  uint32
	seq uint64 // per-hart rename sequence number

	// Source operands: value captured at rename if the producer already
	// wrote back, otherwise dep points at the producing uop and the value
	// is captured at that uop's write back.
	src1, src2 uint32
	dep1, dep2 *uop

	issued bool
	done   bool // retired from the execution stage (commit-eligible)

	value   uint32 // register result (written back through the rb)
	needsRB bool
	memWait bool // load in flight; rb release gated on the response

	// p_ret bookkeeping: operand values captured at issue.
	isRet        bool
	retRA, retT0 uint32
}

func (u *uop) ready() bool { return u.dep1 == nil && u.dep2 == nil }

// remoteRB is one of the hart's addressable result buffers fed by p_swre
// messages from later harts; implemented as a bounded FIFO.
type remoteRB struct {
	vals []uint32
}

// hart is one hardware thread of a core.
type hart struct {
	core *core
	idx  int    // hart index within the core
	bit  uint8  // 1 << idx: the hart's bit in the core's candidate masks
	gid  uint32 // global hart number (4*core+idx)

	state        hartState
	pc           uint32
	pcValid      bool   // next pc known
	pcReadyCycle uint64 // earliest fetch cycle for the current pc
	syncmWait    bool   // p_syncm decoded: fetch blocked until memory drains

	regs       [32]uint32
	lastWriter [32]*uop // most recently renamed writer still in flight

	ib *uop   // fetched, not yet renamed (the decode-stage buffer)
	it []*uop // instruction table, in rename order

	// Reorder buffer: a fixed-capacity ring (commit consumes from the
	// head every cycle, so a plain slice would shed its backing array
	// capacity and reallocate on every wrap).
	rob     []*uop // len == Config.ROBEntries, allocated once
	robHead int
	robN    int

	seq     uint64 // rename counter
	renamed uint64 // statistics

	// Execution/result buffer: at most one value-producing instruction is
	// in flight per hart (the paper's 1-deep result buffer).
	exec        *uop
	execReadyAt uint64

	inflightMem int  // outstanding memory accesses (loads+stores+CV writes)
	hasPred     bool // must receive an ending-hart signal before p_ret commits
	predSignal  bool // signal received
	remote      []remoteRB
	startedBy   uint32 // global hart that forked us (diagnostics)
	endingEpoch uint64 // cycle of last lifecycle change (diagnostics)

	pool []*uop // recycled uops (bounded by ROB size)

	// Reusable memory-event payloads (clients.go). A hart has at most one
	// load in flight (the 1-deep result buffer gates issue until the
	// response returns), so ldc can be re-armed per load; stc is
	// stateless beyond the hart pointer and is shared by every
	// outstanding store and continuation-value write.
	ldc loadClient
	stc storeClient

	// Performance counters (always counted; reported when profiling is
	// enabled). lastCommit marks the cycle of the hart's latest commit so
	// the per-cycle stall attribution can tell retiring cycles apart.
	perf       *perf.HartCounters
	lastCommit uint64
}

// newUop takes a zeroed uop from the pool (or allocates one).
func (h *hart) newUop() *uop {
	if n := len(h.pool); n > 0 {
		u := h.pool[n-1]
		h.pool = h.pool[:n-1]
		*u = uop{}
		return u
	}
	return &uop{}
}

// freeUop returns a committed uop to the pool.
func (h *hart) freeUop(u *uop) {
	if len(h.pool) < 64 {
		h.pool = append(h.pool, u)
	}
}

// ---- reorder-buffer ring ----------------------------------------------

// robLen returns the number of in-flight entries.
func (h *hart) robLen() int { return h.robN }

// robFront returns the oldest entry; robN must be nonzero.
func (h *hart) robFront() *uop { return h.rob[h.robHead] }

// robAt returns the i-th oldest entry (0 = front); i must be < robN.
func (h *hart) robAt(i int) *uop { return h.rob[(h.robHead+i)%len(h.rob)] }

// robPush appends behind the newest entry; the caller checks robFull.
func (h *hart) robPush(u *uop) {
	h.rob[(h.robHead+h.robN)%len(h.rob)] = u
	h.robN++
}

// robPopFront removes and returns the oldest entry.
func (h *hart) robPopFront() *uop {
	u := h.rob[h.robHead]
	h.rob[h.robHead] = nil // release for the uop pool
	h.robHead = (h.robHead + 1) % len(h.rob)
	h.robN--
	return u
}

func (h *hart) robClear() {
	clear(h.rob)
	h.robHead, h.robN = 0, 0
}

// robFull reports whether the reorder buffer is at capacity.
func (h *hart) robFull(cfg *Config) bool { return h.robN >= cfg.ROBEntries }

// itFull reports whether the instruction table is at capacity.
func (h *hart) itFull(cfg *Config) bool { return len(h.it) >= cfg.ITEntries }

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
	h.lastWriter = [32]*uop{}
	h.ib = nil
	h.it = h.it[:0]
	h.robClear()
	h.exec = nil
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
	h.ib = nil
	h.endingEpoch = now
}

// wake captures a written-back value in every dependent instruction.
func (h *hart) wake(producer *uop, value uint32) {
	for _, u := range h.it {
		if u.dep1 == producer {
			u.src1 = value
			u.dep1 = nil
		}
		if u.dep2 == producer {
			u.src2 = value
			u.dep2 = nil
		}
	}
}

// removeFromIT deletes an issued uop from the instruction table.
func (h *hart) removeFromIT(u *uop) {
	for i, v := range h.it {
		if v == u {
			h.it = append(h.it[:i], h.it[i+1:]...)
			return
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
