// Package perf defines the deterministic performance-counter sets of the
// LBP simulator: per-hart cycle attribution by stall cause, per-core
// pipeline-stage occupancy, the retired-instruction mix by opcode class,
// and the memory-side counters (per-link-class wait cycles and
// local-vs-remote latency histograms).
//
// The counters are plain integers incremented inline by the simulator —
// they never feed back into timing, so enabling them cannot change a
// run's cycle count or event-trace digest. Because every simulated
// machine is single-threaded, counter values are a pure function of the
// program and the configuration: two runs of the same figure must produce
// byte-identical snapshots regardless of the host-side worker count (the
// seq-vs-parallel equivalence tests assert exactly that).
package perf

import (
	"math/bits"

	"repro/internal/isa"
)

// StallCause attributes one non-retiring hart-cycle. Every hart-cycle of
// a profiled run is either a commit or exactly one of these causes, so
// CommitCycles + sum(StallCycles) == Cycles * NumHarts.
type StallCause uint8

const (
	// StallHartFree: the hart is free — no team member is placed on it.
	StallHartFree StallCause = iota
	// StallFetch: the hart is running but its pipeline is empty and the
	// next pc is not yet fetchable (the per-fetch suspension of Section 5.2).
	StallFetch
	// StallOperand: the oldest instruction waits for a source operand
	// (an in-flight producer, or a p_lwre result not yet arrived).
	StallOperand
	// StallMem: the hart waits on the memory system — an in-flight load,
	// a p_syncm / p_ret drain, or a load/store held by the issue order.
	StallMem
	// StallFork: a p_fc/p_fn waits for a free hart, or a freshly
	// allocated hart waits for its start pc.
	StallFork
	// StallJoin: the hart waits at the hardware barrier — a p_ret held by
	// the predecessor's ending-hart signal, or a hart parked for a join
	// address.
	StallJoin
	// StallPipeline: the hart has work in flight but did not commit this
	// cycle — functional-unit latency, result-buffer occupancy, or losing
	// a stage's round-robin slot to a sibling hart.
	StallPipeline

	NumStallCauses = int(StallPipeline) + 1
)

var stallNames = [NumStallCauses]string{
	"hart-free", "fetch-starved", "operand-wait", "memory-wait",
	"fork-slot-wait", "join-wait", "pipeline-busy",
}

// String returns the snapshot/table name of the cause.
func (c StallCause) String() string {
	if int(c) < NumStallCauses {
		return stallNames[c]
	}
	return "unknown"
}

// Stage indexes the five pipeline stages for occupancy counting.
type Stage uint8

const (
	StageFetch Stage = iota
	StageRename
	StageIssue
	StageWriteback
	StageCommit

	NumStages = int(StageCommit) + 1
)

var stageNames = [NumStages]string{"fetch", "rename", "issue", "writeback", "commit"}

// String returns the stage name.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

const numClasses = int(isa.NumClasses)

var classNames = [numClasses]string{
	"alu", "mul", "div", "load", "store", "branch", "jump", "system", "xpar",
}

// HartCounters is the per-hart counter set, incremented by the pipeline.
type HartCounters struct {
	Stalls  [NumStallCauses]uint64
	Commits uint64
	Retired [numClasses]uint64
}

// CoreCounters is the per-core counter set: cycles in which each pipeline
// stage processed an instruction.
type CoreCounters struct {
	StageBusy [NumStages]uint64
}

// LinkClass labels the link families of the memory system for wait-cycle
// attribution (see mem.System: every unidirectional link carries one
// transaction per cycle, so time spent waiting for a busy slot is the
// contention signal).
type LinkClass uint8

const (
	LinkCoreUp    LinkClass = iota // core -> r1 request link
	LinkCoreDown                   // r1 -> core result link
	LinkLocalPort                  // local-bank port (stacks, CV area)
	LinkBankPort                   // shared-bank port, router side
	LinkBankLocal                  // shared-bank port, own-core side
	LinkR1Req                      // r1 <-> r2 request links
	LinkR1Resp                     // r1 <-> r2 result links
	LinkR2Req                      // r2 <-> r3 request links
	LinkR2Resp                     // r2 <-> r3 result links
	LinkForward                    // forward neighbor link (forks, CVs, signals)
	LinkBackward                   // backward line (joins, p_swre results)
	LinkChipReq                    // external chip-to-chip request links
	LinkChipResp                   // external chip-to-chip result links

	NumLinkClasses = int(LinkChipResp) + 1
)

// Router levels beyond r2 — which exist only on machines above 64
// cores — attribute their waits to the r2 classes: the upper tree is
// one aggregate contention bucket. LinkWait is a fixed array inside
// every checkpoint, so giving those levels classes of their own is a
// saved-struct change like any other: it bumps lbp's checkpointVersion.

var linkNames = [NumLinkClasses]string{
	"core-up", "core-down", "local-port", "bank-port", "bank-local",
	"r1-req", "r1-resp", "r2-req", "r2-resp",
	"forward", "backward", "chip-req", "chip-resp",
}

// String returns the snapshot/table name of the link class.
func (l LinkClass) String() string {
	if int(l) < NumLinkClasses {
		return linkNames[l]
	}
	return "unknown"
}

// Histogram counts values in log2 buckets: bucket i holds values v with
// bits.Len64(v) == i, i.e. bucket 0 is v == 0 and bucket i >= 1 covers
// [2^(i-1), 2^i).
type Histogram struct {
	Buckets [33]uint64
}

// Observe adds one value.
func (h *Histogram) Observe(v uint64) {
	b := bits.Len64(v)
	if b >= len(h.Buckets) {
		b = len(h.Buckets) - 1
	}
	h.Buckets[b]++
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 {
	var n uint64
	for _, b := range h.Buckets {
		n += b
	}
	return n
}

// MemCounters is the memory-side counter set, owned by mem.System and
// incremented inline by the link-slot allocator and the submit paths.
type MemCounters struct {
	// LinkWait accumulates, per link class, the cycles transactions spent
	// waiting for a busy link slot.
	LinkWait [NumLinkClasses]uint64
	// LocalLat / RemoteLat are submit-to-completion latency histograms:
	// local covers local-bank and own-shared-bank accesses, remote covers
	// routed shared accesses.
	LocalLat  Histogram
	RemoteLat Histogram
}
