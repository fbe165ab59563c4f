package lbp

import (
	"fmt"
	"math/bits"
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

	descs  []isa.Desc             // predecoded code bank, indexed by pc/4: the fetch source (decodeCode)
	latTab [isa.NumClasses]uint64 // functional-unit latency by pipeline class
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

	// Phase B (phase.go): late holds the cycle's p_fn allocations and
	// the faults raised after the first of them, lateEvents the trace
	// events raised after it. Both are empty at every cycle boundary.
	late       []lateItem
	lateEvents []trace.Event
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
	if cfg.ROBEntries > maxSlots {
		panic("lbp: Config.ROBEntries is above 64")
	}
	cores := make([]*core, cfg.Cores)
	for c := range cores {
		cores[c] = &core{}
	}
	harts := make([]*hart, cfg.Cores*HartsPerCore)
	// Every hart's reorder buffer is a window of one slab. A hart's ring
	// is written from its first rename on, so the rings of harts that
	// never run stay untouched, fresh pages of the allocation.
	slab := make([]uop, len(harts)*cfg.ROBEntries)
	for i := range harts {
		harts[i] = &hart{
			Rob:    slab[i*cfg.ROBEntries:][:cfg.ROBEntries:cfg.ROBEntries],
			Remote: make([]remoteRB, cfg.RemoteRBs),
		}
	}
	m := build(cfg, cores, harts)
	for _, h := range harts {
		h.reset()
	}
	return m
}

// build makes the machine of cfg around its cores and harts, whose
// saved fields are set — empty from New, decoded by restore — and wires
// their host-side ones: the links between machine, cores and harts,
// indices, candidate-mask bits, counters and busy counts.
func build(cfg Config, cores []*core, harts []*hart) *Machine {
	if cfg.Mem.Cores != cfg.Cores {
		cfg.Mem.Cores = cfg.Cores
	}
	m := &Machine{
		cfg:     cfg,
		Mem:     mem.New(cfg.Mem),
		cores:   cores,
		harts:   harts,
		fastFwd: true,
	}
	m.Mem.SetHandler(m)
	if cfg.LivelockWindow == 0 {
		m.cfg.LivelockWindow = 100000
	}
	for cls := range m.latTab {
		m.latTab[cls] = uint64(cfg.ALULat)
	}
	m.latTab[isa.ClassMul] = uint64(cfg.MulLat)
	m.latTab[isa.ClassDiv] = uint64(cfg.DivLat)
	m.hperf = make([]perf.HartCounters, len(harts))
	m.cperf = make([]perf.CoreCounters, len(cores))
	for c, co := range cores {
		co.m, co.idx, co.perf, co.idleFrom = m, c, &m.cperf[c], 1
		for hi := range co.harts {
			h := harts[isa.GlobalHart(c, hi)]
			h.core, h.idx, h.bit, h.gid = co, hi, 1<<hi, isa.GlobalHart(c, hi)
			h.perf = &m.hperf[h.gid]
			co.harts[hi] = h
			if h.State != hartFree {
				co.busy++
				m.activeDirty = true
			}
		}
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

// event records a trace event. Events fold straight into the recorder
// until the cycle's first p_fn, whose fork event value only exists in
// phase B: from there they wait in lateEvents, which phase B records once
// the forks have patched their placeholders. Nothing else reaches the
// recorder at the current cycle (memory and message callbacks fire
// during later Mem.Steps), so the order is the emission order.
func (m *Machine) event(kind trace.Kind, core int, hartIdx int, value uint64) {
	if !m.tracing {
		return
	}
	e := trace.Event{
		Cycle: m.cycle, Core: uint16(core), Hart: uint8(hartIdx),
		Kind: kind, Value: value,
	}
	if len(m.late) > 0 {
		m.lateEvents = append(m.lateEvents, e)
		return
	}
	m.rec.Add(e)
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

// faultf raises a machine fault, which stops the run. Faults are
// deterministic: the same program faults at the same cycle every run, and
// the first one raised wins. After the cycle's first p_fn a fault waits
// behind the fork in phase B (phase.go), since a fork that finds no free
// hart faults there.
func (m *Machine) faultf(core, hartIdx int, format string, args ...any) {
	err := faultError(fmt.Sprintf("lbp: cycle %d core %d hart %d: %s",
		m.cycle, core, hartIdx, fmt.Sprintf(format, args...)))
	if len(m.late) > 0 {
		m.late = append(m.late, lateItem{err: err})
		return
	}
	m.fail(err)
}

// fail stops the run with err unless an earlier fault already did.
func (m *Machine) fail(err error) {
	if m.err == nil {
		m.err = err
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
	h0.reset()
	h0.start(p.Entry, 0)
	h0.Regs[2] = m.cfg.SPInit(0)
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
// every active core in core-index order and phase B allocates the harts
// of the cycle's p_fns (see phase.go). A cycle on which no pipeline stage did
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
		for _, c := range m.active {
			if c.stepCompute(m.cycle) {
				activity = true
			}
		}
		if len(m.late) > 0 {
			m.applyLate(m.cycle)
		}
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
		Forks:   m.stats.Forks,
		Starts:  m.stats.Starts,
		Joins:   m.stats.Joins,
		Signals: m.stats.Signals,

		FastForwarded: m.stats.FastForwarded,
		PerHart:       make([]uint64, len(m.harts)),
	}
	// The cores accumulate their own-phase counters for the whole run,
	// and the stages count fetches and commits in the perf counters they
	// keep unconditionally; fold them in here instead of every cycle.
	for _, c := range m.cores {
		st.Fetched += c.perf.StageBusy[perf.StageFetch]
		st.Forks += c.StatForks
		st.RemoteSends += c.StatSends
	}
	for i := range m.hperf {
		st.PerHart[i] = m.hperf[i].Commits
		st.Retired += m.hperf[i].Commits
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
		if h.State == hartFree {
			continue
		}
		if shown == stuckReportHarts {
			more++
			continue
		}
		shown++
		fmt.Fprintf(&out, "\n  core %d hart %d: state=%d pc=%#x pcValid=%v rob=%d it=%d inflight=%d hasPred=%v sig=%v",
			h.core.idx, h.idx, h.State, h.PC, h.PCValid, h.RobN, bits.OnesCount64(h.IT),
			h.InflightMem, h.HasPred, h.PredSignal)
		if h.RobN > 0 {
			u := h.robFront()
			fmt.Fprintf(&out, " head=%s done=%v", isa.Disassemble(u.d.Inst, u.PC), u.Done)
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
		h.reset()
		// reset keeps the fields that are monotonic within one run;
		// between runs they start from zero like on a fresh machine.
		h.ExecReadyAt = 0
		h.StartedBy = 0
		h.EndingEpoch = 0
		h.LastCommit = 0
	}
	for _, c := range m.cores {
		c.FetchRR, c.RenameRR, c.IssueRR, c.WbRR, c.CommitRR = 0, 0, 0, 0, 0
		c.StatForks, c.StatSends = 0, 0
		c.idleFrom = 0 // restamped by rebuildActive below
	}
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
