package lbp

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/trace"
)

// Checkpoint/restore. A machine paused at a cycle boundary (after New,
// after a completed run, or wherever Advance stopped) is plain data and
// the predecoded code image, which is recomputed from the code bank.
// The state is declared once: the exported fields of hart, uop, core,
// the devices and the trace recorder are what a checkpoint saves, as
// encoding/gob encodes them, and their unexported fields are derived
// (restore rebuilds them) or host-side.
// A uop is named by its ring slot everywhere in a hart, and the ring
// saves whole with its head; an in-flight memory event names its client
// by value. Restore is decode, then check (check.go), the function the
// tests hold a running machine to after every cycle.
//
// One format, one rule (DESIGN.md §"Serializable machine state"): any
// change to a saved struct — an exported field added, removed, renamed,
// retyped or reordered, or the meaning or replay order of one — bumps
// checkpointVersion, and Restore, the only decoder of machine state,
// refuses every other version outright. gob names each exported
// field of each saved struct in the stream's type descriptors, so even
// deleting a never-written field changes the bytes.

// checkpointVersion is the format number embedded in every checkpoint
// this build writes.
const checkpointVersion = 7

// checkpointMagic prefixes every checkpoint stream; bytes that do not
// start with it are not a checkpoint of this format.
var checkpointMagic = [8]byte{'L', 'B', 'P', 'C', 'K', 'P', 'T', '7'}

// savedMachine is a version-7 stream after its magic, one gob value:
// configuration, clock and counters, the memory system (its banks as
// their attached pages, its in-flight events), the trace recorder (nil:
// untraced), the devices, and every core, hart and performance counter
// of the machine.
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
	Trace      *trace.Recorder
	Devices    []Device
	Cores      []*core
	Harts      []*hart
	HPerf      []perf.HartCounters
	CPerf      []perf.CoreCounters
}

// Checkpoint serializes the full architectural state of the machine:
// hart registers, reorder buffers and rename maps, in-flight memory
// events, link-allocator state and bank pages, the devices, cycle and
// performance counters, and the trace recorder. Restoring the bytes
// with Restore and advancing reproduces the uninterrupted run
// bit-exactly. Host-side execution knobs (fast-forward) are not part of
// the state — they never affect simulated results.
//
// The bytes are the version-7 format: the magic tag, then one
// gob-encoded savedMachine. A device of a type gob does not know
// (device.go registers Sensor and Actuator) fails the encoding.
func (m *Machine) Checkpoint() ([]byte, error) {
	m.flushIdle()
	if len(m.late) > 0 {
		return nil, fmt.Errorf("lbp: checkpoint mid-cycle: %d phase-B items unapplied", len(m.late))
	}
	for _, h := range m.harts {
		h.clearDead()
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
		Trace:      m.rec,
		Devices:    m.devices,
		Cores:      m.cores,
		Harts:      m.harts,
		HPerf:      m.hperf,
		CPerf:      m.cperf,
	}
	if m.err != nil {
		sm.ErrMsg = m.err.Error()
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

// Restore rebuilds a machine from Checkpoint bytes, its trace recorder
// and devices included (Trace, Devices).
func Restore(data []byte) (*Machine, error) {
	m, err := restore(data)
	if err != nil {
		return nil, &CheckpointError{err}
	}
	return m, nil
}

func restore(data []byte) (*Machine, error) {
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
	if sm.DecodedLen > sm.Cfg.Mem.CodeBytes/4 {
		return nil, fmt.Errorf("lbp: checkpoint decoded image exceeds the code bank")
	}
	m := build(sm.Cfg, sm.Cores, sm.Harts)
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
	copy(m.hperf, sm.HPerf)
	copy(m.cperf, sm.CPerf)
	if err := m.Mem.RestoreGlobalState(&sm.Mem, sm.Cycle); err != nil {
		return nil, err
	}
	m.SetTrace(sm.Trace)
	m.devices = sm.Devices
	m.decodeCode(int(sm.DecodedLen))
	for _, h := range m.harts {
		h.derive()
	}
	if err := m.check(); err != nil {
		return nil, fmt.Errorf("lbp: checkpoint at cycle %d: %w", m.cycle, err)
	}
	// The restored counters are settled through m.cycle (Checkpoint
	// flushes the idle credit), so every idle span restarts after it.
	for _, c := range m.cores {
		c.idleFrom = 0
		// The harts arrived mid-flight: every one is a candidate of every
		// stage until the stage's scan says otherwise.
		c.fetchC, c.renameC, c.issueC, c.wbC, c.commitC = allHarts, allHarts, allHarts, allHarts, allHarts
	}
	m.rebuildActive(m.cycle + 1)
	return m, nil
}
