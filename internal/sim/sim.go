// Package sim is the session layer over the LBP simulator: a
// declarative Spec describes one simulation — program, machine
// geometry, devices, cycle budget and observers — and a Session
// builds, runs, checkpoints, resumes and resets the underlying machine.
// Every runner in this repository (cmd/lbp-run, cmd/lbp-bench,
// internal/figures, examples/) builds machines through this package,
// so the build-and-attach ordering that determinism depends on lives
// in exactly one place.
//
// Idle-cycle fast-forward never affects simulated results (its one
// switch is lbp.Machine.SetFastForward, for the equivalence tests);
// observers (trace recorder, perf counters) never affect simulated
// timing. A Session is not safe for concurrent use, but
// independent Sessions are, and Pool hands out warm machines safely
// from many goroutines.
package sim

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/lbp"
	"repro/internal/perf"
	"repro/internal/trace"
)

// defaultMaxCycles bounds a run when the Spec does not.
const defaultMaxCycles = 100_000_000

// MaxTraceRing bounds TraceSpec.Ring. The ring is allocated when the
// session is built and a serving layer returns it whole, so the size is
// checked in New, where every entry point (lbp-run -tail, POST /jobs
// "ring", a worker handed the job over rpc) passes: 1 Mi events is
// 24 MiB of recorder, 16 times what lbp-run -chrome retains.
const MaxTraceRing = 1 << 20

// TraceSpec configures event tracing. The zero value records nothing.
type TraceSpec struct {
	Digest bool // fold every event into the determinism digest
	Ring   int  // retain the last Ring events for inspection (at most MaxTraceRing)
}

func (t TraceSpec) enabled() bool { return t.Digest || t.Ring > 0 }

// Spec declares one simulation. The zero value of every field is the
// default: a 4-core machine with the paper-inspired configuration, no
// devices, a 100M-cycle budget, no tracing or profiling. Only Program
// is required.
type Spec struct {
	// Program is the assembled program to load (required).
	Program *asm.Program

	// Config, when non-nil, is the complete machine configuration and
	// overrides Cores/SharedBankBytes.
	Config *lbp.Config

	// Cores sizes a default-configured machine when Config is nil
	// (0 = 4 cores); SharedBankBytes then overrides the per-core shared
	// bank size (0 = keep the default).
	Cores           int
	SharedBankBytes uint32

	// Devices are attached to the machine in order. Sessions with
	// devices cannot be pooled or reset (device state is external).
	Devices []lbp.Device

	// MaxCycles is the absolute run budget (0 = 100M).
	MaxCycles uint64

	Trace   TraceSpec
	Profile bool // enable the deterministic performance counters

	// Deprecated: SimWorkers selected the sharded stepper, which is
	// gone; nothing reads the field. It stays only because the frozen
	// benchmark probe (bench/lbp-load/trace.go, lbp.sharded_speedup_1024c)
	// still assigns it, and goes when that probe does.
	SimWorkers int
}

// machineConfig resolves the machine configuration of the Spec.
func (s *Spec) machineConfig() lbp.Config {
	if s.Config != nil {
		return *s.Config
	}
	cores := s.Cores
	if cores <= 0 {
		cores = 4
	}
	cfg := lbp.DefaultConfig(cores)
	if s.SharedBankBytes != 0 {
		cfg.Mem.SharedBytes = s.SharedBankBytes
	}
	return cfg
}

// Session is one live simulation built from a Spec.
type Session struct {
	spec Spec
	cfg  lbp.Config
	m    *lbp.Machine
	rec  *trace.Recorder
}

// New builds a machine from the Spec and loads its program.
func New(spec Spec) (*Session, error) {
	if spec.Program == nil {
		return nil, fmt.Errorf("sim: Spec.Program is required")
	}
	if spec.Trace.Ring > MaxTraceRing {
		return nil, fmt.Errorf("sim: trace ring of %d events exceeds the maximum %d", spec.Trace.Ring, MaxTraceRing)
	}
	s := &Session{spec: spec, cfg: spec.machineConfig()}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	s.m = lbp.New(s.cfg)
	s.attachObservers()
	if err := s.m.LoadProgram(spec.Program); err != nil {
		return nil, err
	}
	for _, d := range spec.Devices {
		s.m.AddDevice(d)
	}
	return s, nil
}

// attachObservers wires the trace recorder and performance counters.
func (s *Session) attachObservers() {
	if s.spec.Trace.enabled() {
		s.rec = trace.New(s.spec.Trace.Ring)
	} else {
		s.rec = nil
	}
	s.m.SetTrace(s.rec)
	if s.spec.Profile {
		s.m.EnableProfiling()
	}
}

// MaxCycles returns the resolved run budget.
func (s *Session) MaxCycles() uint64 {
	if s.spec.MaxCycles == 0 {
		return defaultMaxCycles
	}
	return s.spec.MaxCycles
}

// Run advances the machine until the program exits or the budget
// elapses. The budget is absolute: a resumed session counts the cycles
// already simulated against it.
func (s *Session) Run() (*lbp.Result, error) { return s.m.Run(s.MaxCycles()) }

// Advance runs at most n more cycles; (nil, nil) means the machine
// paused at a cycle boundary (see lbp.Machine.Advance).
func (s *Session) Advance(n uint64) (*lbp.Result, error) { return s.m.Advance(n) }

// Checkpoint serializes the machine's full architectural state.
func (s *Session) Checkpoint() ([]byte, error) { return s.m.Checkpoint() }

// RunSliced runs to completion like Run, but advances in slices of at
// most `slice` cycles and calls check at every slice boundary (and once
// before the first slice). A non-nil check error pauses the machine at
// a cycle boundary — it can then be checkpointed or advanced further —
// and is returned verbatim. This is the cooperative-cancellation hook:
// a serving layer checks wall-clock deadlines and shutdown signals
// between slices without ever disturbing the simulated results, which
// are bit-identical for every slice size.
func (s *Session) RunSliced(slice uint64, check func(cycle uint64) error) (*lbp.Result, error) {
	if slice == 0 {
		return nil, fmt.Errorf("sim: slice must be positive")
	}
	max := s.MaxCycles()
	for {
		if err := check(s.m.Cycle()); err != nil {
			return nil, err
		}
		c := s.m.Cycle()
		if c >= max {
			// Budget exhausted: Run produces the canonical error.
			return s.m.Run(max)
		}
		n := slice
		if c+n > max {
			n = max - c
		}
		res, err := s.m.Advance(n)
		if res != nil || err != nil {
			return res, err
		}
	}
}

// Reset returns the warm machine to its initial state and loads prog,
// reattaching fresh observers and turning fast-forward back on, so a
// pooled machine never inherits a test's setting. Sessions with devices refuse: device
// state lives outside the machine and would leak between runs.
func (s *Session) Reset(prog *asm.Program) error {
	if len(s.spec.Devices) > 0 {
		return fmt.Errorf("sim: cannot reset a session with devices")
	}
	if prog == nil {
		return fmt.Errorf("sim: Reset needs a program")
	}
	if err := s.m.Reset(prog); err != nil {
		return err
	}
	s.spec.Program = prog
	s.attachObservers()
	s.m.SetFastForward(true)
	return nil
}

// Machine exposes the underlying machine (shared-memory reads). The
// session owns its lifecycle.
func (s *Session) Machine() *lbp.Machine { return s.m }

// Recorder returns the attached trace recorder, nil when tracing is off.
func (s *Session) Recorder() *trace.Recorder { return s.rec }

// Config returns the resolved machine configuration.
func (s *Session) Config() lbp.Config { return s.cfg }

// PerfSnapshot returns the deterministic counter snapshot (nil unless
// the Spec enabled profiling).
func (s *Session) PerfSnapshot() *perf.Snapshot { return s.m.PerfSnapshot() }

// ResumeSpec carries what a checkpoint cannot: the devices to reattach
// (freshly built with the original configuration, in AddDevice order)
// and the budget of the resuming process. Trace and profiling
// configuration travel inside the checkpoint.
type ResumeSpec struct {
	Devices   []lbp.Device
	MaxCycles uint64 // absolute budget, counting already-simulated cycles
}

// Resume rebuilds a session from Checkpoint bytes. Advancing it
// reproduces the uninterrupted run bit-exactly, for either fast-forward
// setting on either side of the split.
func Resume(cp []byte, rs ResumeSpec) (*Session, error) {
	m, err := lbp.Restore(cp, rs.Devices...)
	if err != nil {
		return nil, err
	}
	return &Session{
		spec: Spec{Devices: rs.Devices, MaxCycles: rs.MaxCycles},
		cfg:  m.Config(),
		m:    m,
		rec:  m.Trace(),
	}, nil
}
