// Package lbp implements a cycle-level, deterministic simulator of the
// LBP parallelizing manycore processor described in the paper
// "Deterministic OpenMP and the LBP Parallelizing Manycore Processor".
//
// Each core is a five-stage pipeline — fetch, decode/rename, out-of-order
// issue, write back, in-order commit (Figures 10-12) — shared by four
// harts. There is no branch predictor, no cache hierarchy, no load/store
// queue and no interrupt support. Teams of harts are created, synchronized
// and joined entirely in hardware through the X_PAR instructions.
//
// The simulator is deterministic by construction: it advances in lock-step
// cycles, every arbitration is a pure function of machine state, and no
// goroutines, host time or randomized iteration participate in the
// simulated machine.
package lbp

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Config parameterizes an LBP machine.
type Config struct {
	Cores int
	Mem   mem.Config

	// Functional-unit latencies in cycles.
	ALULat int
	MulLat int
	DivLat int

	// Per-hart structure sizes.
	ITEntries  int // instruction table (reservation station) entries
	ROBEntries int // reorder buffer entries
	RemoteRBs  int // number of result buffers addressable by p_swre/p_lwre
	RBDepth    int // FIFO depth of each remote result buffer; reductions
	// buffer one value per team member until the join hart drains them,
	// so the default accommodates the largest teams

	// CVBytes reserves this many bytes at the top of each hart stack for
	// continuation values written by p_swcv.
	CVBytes uint32

	// StrictMemOrder keeps same-hart loads behind older non-issued stores
	// and in-flight stores to the same word, standing in for the p_syncm
	// discipline a careful compiler would emit (documented deviation).
	StrictMemOrder bool

	// LivelockWindow aborts the run if no instruction commits and no
	// memory event fires for this many cycles (0 = default).
	LivelockWindow uint64
}

// DefaultConfig returns a machine with n cores and paper-inspired
// parameters (Section 5 and DESIGN.md Section 5).
func DefaultConfig(n int) Config {
	return Config{
		Cores:          n,
		Mem:            mem.DefaultConfig(n),
		ALULat:         1,
		MulLat:         3,
		DivLat:         17,
		ITEntries:      8,
		ROBEntries:     16,
		RemoteRBs:      4,
		RBDepth:        1024,
		CVBytes:        64,
		StrictMemOrder: true,
		LivelockWindow: 100000,
	}
}

// HartsPerCore is fixed at 4 per the paper.
const HartsPerCore = isa.HartsPerCore

// MaxCores bounds the machine geometry every entry point accepts. The
// simulator itself has no hard ceiling — the router hierarchy grows with
// the core count — but 1024 cores (4096 harts) is the largest machine
// the paper's scaling discussion reaches, and the serpentine backward
// line makes runs far beyond it pathological rather than interesting.
const MaxCores = 1024

// ValidateGeometry rejects machine shapes no entry point should build:
// a core count outside [1, MaxCores], or a router degree that is set
// (non-zero) but below 2 and therefore cannot form a tree. Every
// CLI/serving front end calls it (and sim.New through Validate) so that
// a bad -cores or job spec fails with a message instead of a normalized
// surprise.
func ValidateGeometry(cores, routerDegree int) error {
	if cores < 1 || cores > MaxCores {
		return fmt.Errorf("lbp: cores must be in [1, %d], got %d", MaxCores, cores)
	}
	if routerDegree != 0 && routerDegree < 2 {
		return fmt.Errorf("lbp: router degree must be at least 2 (or 0 for the default), got %d", routerDegree)
	}
	return nil
}

// Bounds of Validate. The paper's per-hart structures hold 4 to 16
// entries and the largest machine in the tree (1024 default cores)
// addresses 129 MiB of banks; the caps sit well clear of both, and exist
// so that a configuration read from a file cannot size an allocation at
// will. The reorder buffer and the instruction table are capped at 64
// entries: the table is one 64-bit mask over reorder-buffer slots
// (hart.it). No bank is allocated whole: the code bank grows with the image
// loaded into it and the local and shared banks are page-backed (mem),
// so maxBankBytes bounds the page tables (one pointer per KiB) and what
// a program can make resident.
const (
	maxSlots         = 64      // ITEntries, ROBEntries
	maxStructEntries = 1 << 10 // RemoteRBs
	maxRBDepth       = 1 << 20
	maxBankBytes     = 1 << 30 // code bank + every core's local and shared bank
	maxLatency       = 1 << 16 // any memory latency, in cycles
)

// Validate rejects configurations New must not be handed: a geometry
// ValidateGeometry refuses, a per-hart structure size or bank size that
// is zero, negative or beyond the bounds above, a memory latency that
// is negative or beyond its bound, or a link hop of zero cycles. sim.New
// and Restore both call it, so every machine that can be checkpointed
// can be restored and nothing else can.
func (c *Config) Validate() error {
	if err := ValidateGeometry(c.Cores, c.Mem.RouterDegree); err != nil {
		return err
	}
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"ITEntries", c.ITEntries, maxSlots},
		{"ROBEntries", c.ROBEntries, maxSlots},
		{"RemoteRBs", c.RemoteRBs, maxStructEntries},
		{"RBDepth", c.RBDepth, maxRBDepth},
	} {
		if f.v < 1 || f.v > f.max {
			return fmt.Errorf("lbp: %s must be in [1, %d], got %d", f.name, f.max, f.v)
		}
	}
	mc := &c.Mem
	// A link hop takes at least a cycle, so every memory event is due
	// after the cycle that schedules it: the events of a checkpoint are
	// due after its cycle, which Restore requires.
	for _, f := range []struct {
		name   string
		v, min int
	}{
		{"HopLat", mc.HopLat, 1},
		{"LocalLat", mc.LocalLat, 0},
		{"SharedLat", mc.SharedLat, 0},
		{"ChipHopLat", mc.ChipHopLat, 0},
	} {
		if f.v < f.min || f.v > maxLatency {
			return fmt.Errorf("lbp: Mem.%s must be in [%d, %d], got %d", f.name, f.min, maxLatency, f.v)
		}
	}
	if mc.CodeBytes == 0 || mc.LocalBytes == 0 || mc.SharedBytes == 0 {
		return fmt.Errorf("lbp: bank sizes must be positive, got code %d, local %d, shared %d",
			mc.CodeBytes, mc.LocalBytes, mc.SharedBytes)
	}
	total := uint64(mc.CodeBytes) + uint64(c.Cores)*(uint64(mc.LocalBytes)+uint64(mc.SharedBytes))
	if total > maxBankBytes {
		return fmt.Errorf("lbp: %d bytes of banks exceed the %d-byte bound", total, maxBankBytes)
	}
	return nil
}

// StackBytes returns the stack region size of one hart.
func (c *Config) StackBytes() uint32 {
	return c.Mem.LocalBytes / HartsPerCore
}

// StackBase returns the lowest local address of hart h's stack region.
func (c *Config) StackBase(h int) uint32 {
	return mem.LocalBase + uint32(h)*c.StackBytes()
}

// SPInit returns the initial stack pointer of hart h: the top of its
// stack region minus the continuation-value area.
func (c *Config) SPInit(h int) uint32 {
	return c.StackBase(h) + c.StackBytes() - c.CVBytes
}
