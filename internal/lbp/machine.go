package lbp

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/trace"
)

// Machine is a whole LBP processor: cores, harts, memory and devices.
type Machine struct {
	cfg   Config
	Mem   *mem.System
	cores []*core
	harts []*hart // flat, index = global hart number

	// Active-core fast path: only cores with at least one non-free hart
	// are stepped, profiled and scanned for the next wake-up, so a cycle
	// costs host time in proportion to the live cores, not to cfg.Cores.
	// The list is kept in core-index order (so skipping is bit-identical
	// to stepping every core: an all-free core's pipeline stages are
	// no-ops). rebuildActive is its only writer. hart.setState raises
	// activeDirty when a core gains its first busy hart or loses its
	// last; Advance rebuilds on entry and after every phase B — the last
	// point of a cycle at which that can happen — so the list is exact
	// whenever it is read.
	active      []*core
	activeDirty bool

	cycle    uint64
	running  bool
	exited   bool
	haltMsg  string
	err      error
	progress uint64 // cycle of the last commit or memory event

	devices []Device
	rec     *trace.Recorder

	descs  []isa.Desc                // predecoded code bank, indexed by pc/4: the fetch source (decodeCode)
	latTab [isa.NumLatClasses]uint64 // functional-unit latency by descriptor class
	stats  Stats

	// Performance counters. The inline increments in the pipeline stages
	// and the memory system are unconditional (they are cheap and cannot
	// affect timing); only the per-cycle stall-attribution walk
	// (profTick) is gated, behind profiling — set by EnableProfiling.
	hperf     []perf.HartCounters // indexed by global hart number
	cperf     []perf.CoreCounters // indexed by core
	profiling bool

	// Host-side execution knobs (never affect simulated results):
	// tracing mirrors rec != nil and gates every trace event, fastFwd
	// enables idle-cycle fast-forward.
	tracing bool
	fastFwd bool

	// deferred is set by the cycle's first p_fn: from there to the cycle
	// boundary effects and trace events queue on their cores instead of
	// applying (phase.go). lane lists the cores that queued any, in
	// ascending core order, for applyDeferred.
	deferred bool
	lane     []*core
}

// Device models an external unit (sensor, actuator, timer) attached to
// the machine. Step is called once per cycle before the cores.
type Device interface {
	Step(m *Machine, now uint64)
}

// Stats aggregates run counters.
type Stats struct {
	Cycles      uint64
	Retired     uint64
	Fetched     uint64
	Forks       uint64
	Starts      uint64
	Joins       uint64
	Signals     uint64
	RemoteSends uint64 // p_swre messages
	PerHart     []uint64

	// FastForwarded counts simulated cycles covered by idle-cycle
	// fast-forward instead of being single-stepped. It is a host-side
	// diagnostic: Cycles and every other counter already include the
	// skipped cycles, so equivalence checks must ignore this field.
	FastForwarded uint64 `json:"FastForwarded,omitempty"`
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// New builds a machine.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 {
		panic("lbp: Config.Cores must be positive")
	}
	if cfg.Mem.Cores != cfg.Cores {
		cfg.Mem.Cores = cfg.Cores
	}
	m := &Machine{
		cfg:     cfg,
		Mem:     mem.New(cfg.Mem),
		fastFwd: true,
	}
	if cfg.LivelockWindow == 0 {
		m.cfg.LivelockWindow = 100000
	}
	m.latTab[isa.LatALU] = uint64(cfg.ALULat)
	m.latTab[isa.LatMul] = uint64(cfg.MulLat)
	m.latTab[isa.LatDiv] = uint64(cfg.DivLat)
	m.cores = make([]*core, cfg.Cores)
	m.harts = make([]*hart, cfg.Cores*HartsPerCore)
	m.hperf = make([]perf.HartCounters, cfg.Cores*HartsPerCore)
	m.cperf = make([]perf.CoreCounters, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		co := &core{m: m, idx: c, perf: &m.cperf[c], idleFrom: 1}
		for hi := 0; hi < HartsPerCore; hi++ {
			h := &hart{
				core:   co,
				idx:    hi,
				bit:    1 << hi,
				gid:    isa.GlobalHart(c, hi),
				remote: make([]remoteRB, cfg.RemoteRBs),
				rob:    make([]*uop, cfg.ROBEntries),
			}
			h.ldc.h = h
			h.stc.h = h
			h.perf = &m.hperf[h.gid]
			h.reset(&m.cfg)
			co.harts[hi] = h
			m.harts[h.gid] = h
		}
		m.cores[c] = co
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// SetTrace attaches an event recorder (nil disables tracing).
func (m *Machine) SetTrace(r *trace.Recorder) {
	m.rec = r
	m.tracing = r != nil
}

// Trace returns the attached recorder, if any.
func (m *Machine) Trace() *trace.Recorder { return m.rec }

// AddDevice attaches a device.
func (m *Machine) AddDevice(d Device) { m.devices = append(m.devices, d) }

// Cycle returns the current cycle number.
func (m *Machine) Cycle() uint64 { return m.cycle }

// descAt returns the predecoded descriptor at pc, or nil when pc is
// unmapped. The returned descriptor aliases the machine's image, which
// the next program load overwrites.
func (m *Machine) descAt(pc uint32) *isa.Desc {
	idx := pc >> 2
	if pc%4 != 0 || uint64(idx) >= uint64(len(m.descs)) {
		return nil
	}
	return &m.descs[idx]
}

// decodeCode makes the first n words of the code bank the descriptor
// image (zero words — below a text base, past the bank's written
// prefix — decode to OpInvalid). Every way code gets into the bank —
// LoadProgram, Reset, checkpoint restore — ends here; the image is the
// machine's own and keeps its backing array, so a warm load allocates
// nothing for it.
func (m *Machine) decodeCode(n int) {
	if cap(m.descs) < n {
		m.descs = make([]isa.Desc, n)
	}
	m.descs = m.descs[:n]
	code := m.Mem.Code()
	for i := range m.descs {
		var w uint32
		if i < len(code) {
			w = code[i]
		}
		m.descs[i] = isa.DecodeDesc(w)
	}
}

// Hart returns the hart with the given global number.
func (m *Machine) Hart(gid uint32) *hart {
	if int(gid) >= len(m.harts) {
		return nil
	}
	return m.harts[gid]
}

// event records a trace event raised outside a core's own step (control-
// message deliveries, during Mem.Step); core.emit is the in-step twin.
func (m *Machine) event(kind trace.Kind, core int, hartIdx int, value uint64) {
	if m.tracing {
		m.rec.Add(trace.Event{
			Cycle: m.cycle, Core: uint16(core), Hart: uint8(hartIdx),
			Kind: kind, Value: value,
		})
	}
}

// rebuildActive refreshes the active-core list in core-index order. now
// is the first cycle profTick has not walked yet: a core joining the list
// is paid the hart-free cycles it sat out up to there, a core leaving it
// starts its idle span there.
func (m *Machine) rebuildActive(now uint64) {
	m.activeDirty = false
	m.active = m.active[:0]
	for _, c := range m.cores {
		switch {
		case c.busy > 0:
			m.creditIdle(c, now)
			c.idleFrom = 0
			m.active = append(m.active, c)
		case c.idleFrom == 0:
			c.idleFrom = now
		}
	}
}

// faultf records a machine fault and stops the run. Faults are
// deterministic: the same program faults at the same cycle every run.
func (m *Machine) faultf(core, hartIdx int, format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf("lbp: cycle %d core %d hart %d: %s",
			m.cycle, core, hartIdx, fmt.Sprintf(format, args...))
	}
	m.exited = true
}

// halt stops the run cleanly (p_ret exit, ebreak).
func (m *Machine) halt(msg string) {
	m.exited = true
	m.haltMsg = msg
}

// LoadProgram installs an assembled program: the code image is replicated
// in every core's code bank, the initialized data segments are written to
// the shared space, and hart 0 of core 0 is started at the entry point
// with register t0 = -1 (the bare-metal exit identity of Figure 6 is set
// up by the program itself).
func (m *Machine) LoadProgram(p *asm.Program) error {
	if err := m.Mem.LoadCode(p.TextBase, p.Text); err != nil {
		return err
	}
	// Predecode the image: fetch is on the critical path of every cycle.
	// A program loaded on top of another extends or overwrites the image.
	m.decodeCode(max(len(m.descs), int(p.TextBase/4)+len(p.Text)))
	for _, seg := range p.Segments {
		if err := m.Mem.LoadShared(seg.Addr, seg.Words); err != nil {
			return err
		}
	}
	h0 := m.harts[0]
	h0.reset(&m.cfg)
	h0.start(p.Entry, 0)
	h0.regs[2] = m.cfg.SPInit(0)
	return nil
}

// Result summarizes a finished run.
type Result struct {
	Stats Stats
	Mem   mem.Stats
	Halt  string
}

// Run advances the machine until the program exits or maxCycles total
// simulated cycles elapse. The budget is absolute: on a machine resumed
// from a checkpoint or paused by Advance, cycles already simulated count
// against it.
//
// Each cycle: memory events and devices step first, then phase A steps
// every active core in core-index order and phase B replays whatever a
// p_fn deferred (see phase.go). A cycle on which no pipeline stage did
// work cannot make progress until the next memory event, device arm or
// hart time gate, so the clock fast-forwards there. Simulated results
// are identical with fast-forward on or off.
func (m *Machine) Run(maxCycles uint64) (*Result, error) {
	var n uint64
	if maxCycles > m.cycle {
		n = maxCycles - m.cycle
	}
	res, err := m.Advance(n)
	if res != nil || err != nil {
		return res, err
	}
	return nil, fmt.Errorf("lbp: exceeded %d cycles without exiting%s",
		maxCycles, m.stuckReport())
}

// Advance runs at most n more cycles. It returns (nil, nil) when the
// budget runs out before the program exits: the machine is then paused
// at a cycle boundary — no mid-cycle state is in flight — and can be
// advanced further, checkpointed, or both. A run split into Advance legs
// is bit-identical to one uninterrupted run (the host-side
// Stats.FastForwarded diagnostic excepted).
func (m *Machine) Advance(n uint64) (*Result, error) {
	if m.exited {
		if m.err != nil {
			return nil, m.err
		}
		return nil, fmt.Errorf("lbp: machine already ran; create a new one")
	}
	stop := m.cycle + n
	if !m.running {
		m.running = true
		m.progress = m.cycle
	}
	if m.activeDirty {
		// LoadProgram, Reset or Restore moved harts since the last cycle.
		m.rebuildActive(m.cycle + 1)
	}
	hasDevices := len(m.devices) > 0
	for !m.exited {
		if m.cycle >= stop {
			return nil, nil
		}
		m.cycle++
		if !m.Mem.Drained() {
			m.progress = m.cycle
		}
		m.Mem.Step(m.cycle)
		if hasDevices {
			for _, d := range m.devices {
				d.Step(m, m.cycle)
			}
		}
		activity := false
		m.deferred = false
		for _, c := range m.active {
			if c.stepCompute(m.cycle) {
				activity = true
			}
			if m.deferred && (len(c.pend) > 0 || len(c.evbuf) > 0) {
				m.lane = append(m.lane, c)
			}
		}
		m.applyDeferred(m.cycle)
		if m.activeDirty {
			// Before the tick: a core whose first hart phase B just
			// allocated is attributed this cycle like any listed core (its
			// new hart stalls on the fork, not hart-free). Mem.Step and
			// devices never free or allocate a hart, so the next cycle's
			// phase A steps exactly this list.
			m.rebuildActive(m.cycle)
		}
		if m.profiling {
			m.profTick(m.cycle)
		}
		if m.cycle-m.progress > m.cfg.LivelockWindow {
			m.faultf(-1, -1, "no progress for %d cycles (deadlock?)%s",
				m.cfg.LivelockWindow, m.stuckReport())
		}
		if !activity && m.fastFwd && !m.exited {
			m.fastForward(m.cycle, stop)
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	return m.result(), nil
}

func (m *Machine) result() *Result {
	st := Stats{
		Cycles:  m.cycle,
		Fetched: m.stats.Fetched,
		Forks:   m.stats.Forks,
		Starts:  m.stats.Starts,
		Joins:   m.stats.Joins,
		Signals: m.stats.Signals,

		RemoteSends:   m.stats.RemoteSends,
		FastForwarded: m.stats.FastForwarded,
		PerHart:       make([]uint64, len(m.harts)),
	}
	// The cores accumulate their own-phase counters for the whole run;
	// fold them in here instead of every cycle.
	for _, c := range m.cores {
		st.Fetched += c.statFetched
		st.Forks += c.statForks
		st.RemoteSends += c.statSends
	}
	for i, h := range m.harts {
		st.PerHart[i] = h.retired
		st.Retired += h.retired
	}
	return &Result{Stats: st, Mem: m.Mem.Stats, Halt: m.haltMsg}
}

// stuckReportHarts bounds stuckReport: the report travels inside the run
// error (lbp-serve returns it in a 422 body), and a 1024-core machine
// has 4096 harts.
const stuckReportHarts = 16

// stuckReport describes the first stuckReportHarts non-free harts and
// counts the rest, to diagnose deadlocks and timeouts.
func (m *Machine) stuckReport() string {
	var out strings.Builder
	shown, more := 0, 0
	for _, h := range m.harts {
		if h.state == hartFree {
			continue
		}
		if shown == stuckReportHarts {
			more++
			continue
		}
		shown++
		fmt.Fprintf(&out, "\n  core %d hart %d: state=%d pc=%#x pcValid=%v rob=%d it=%d inflight=%d hasPred=%v sig=%v",
			h.core.idx, h.idx, h.state, h.pc, h.pcValid, h.robN, len(h.it),
			h.inflightMem, h.hasPred, h.predSignal)
		if h.robN > 0 {
			u := h.robFront()
			fmt.Fprintf(&out, " head=%s done=%v", isa.Disassemble(u.d.Inst, u.pc), u.done)
		}
	}
	if more > 0 {
		fmt.Fprintf(&out, "\n  … and %d more", more)
	}
	return out.String()
}

// ReadShared reads a word from shared memory after (or during) a run.
func (m *Machine) ReadShared(addr uint32) (uint32, bool) {
	return m.Mem.PeekShared(addr)
}

// ReadSharedSlice reads n consecutive words starting at addr. It
// reports ok=false when n is negative, when the word range would wrap
// the 32-bit address space, or when any word is outside the shared
// region — and it validates the range endpoints before allocating, so a
// bogus huge n cannot make it reserve gigabytes first.
func (m *Machine) ReadSharedSlice(addr uint32, n int) ([]uint32, bool) {
	if n < 0 {
		return nil, false
	}
	if n > 0 {
		last := uint64(addr) + 4*uint64(n-1)
		if last > uint64(^uint32(0)) {
			return nil, false
		}
		if _, ok := m.Mem.PeekShared(addr); !ok {
			return nil, false
		}
		if _, ok := m.Mem.PeekShared(uint32(last)); !ok {
			return nil, false
		}
	}
	out := make([]uint32, n)
	for i := range out {
		v, ok := m.Mem.PeekShared(addr + uint32(4*i))
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// Reset returns the machine to its post-New state — keeping every
// allocation warm — and loads a new program, for machine reuse across
// the runs of a sweep. Host-side settings (trace recorder, profiling,
// fast-forward) survive here; sim.Session.Reset, the pool's path,
// reattaches fresh observers and turns fast-forward back on. A run on
// a reset machine is bit-identical to the same run on a freshly built
// one.
func (m *Machine) Reset(p *asm.Program) error {
	m.Mem.Reset()
	for _, h := range m.harts {
		h.reset(&m.cfg)
		// reset keeps the fields that are monotonic within one run;
		// between runs they start from zero like on a fresh machine.
		h.seq = 0
		h.renamed = 0
		h.execReadyAt = 0
		h.retired = 0
		h.startedBy = 0
		h.endingEpoch = 0
		h.lastCommit = 0
	}
	for _, c := range m.cores {
		c.fetchRR, c.renameRR, c.issueRR, c.wbRR, c.commitRR = 0, 0, 0, 0, 0
		c.statFetched, c.statForks, c.statSends = 0, 0, 0
		c.idleFrom = 0 // restamped by rebuildActive below
		clear(c.pend)
		c.pend = c.pend[:0]
		c.evbuf = c.evbuf[:0]
	}
	clear(m.lane)
	m.lane = m.lane[:0]
	m.cycle = 0
	m.running = false
	m.exited = false
	m.haltMsg = ""
	m.err = nil
	m.progress = 0
	m.stats = Stats{}
	clear(m.hperf)
	clear(m.cperf)
	m.descs = m.descs[:0]
	m.rebuildActive(1)
	return m.LoadProgram(p)
}
