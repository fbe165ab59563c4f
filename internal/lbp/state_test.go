package lbp

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/trace"
)

// ignoreFastForwarded zeroes the host-side diagnostic that legitimately
// differs between a split and an uninterrupted run (the resume leg
// single-steps the quiescent cycle it wakes on).
func ignoreFastForwarded(s Stats) Stats {
	s.FastForwarded = 0
	return s
}

// teamMachine builds a traced machine loaded with prog.
func teamMachine(t *testing.T, cores int, prog *asm.Program, ffwd bool) *Machine {
	t.Helper()
	m := New(DefaultConfig(cores))
	m.SetTrace(trace.New(0))
	m.SetFastForward(ffwd)
	if err := m.LoadProgram(prog); err != nil {
		t.Fatalf("load: %v", err)
	}
	return m
}

// checkSplitRun advances a fresh machine k cycles, checkpoints it,
// restores it and runs it to the end — each leg under its own
// fast-forward setting — and requires the outcome of the uninterrupted
// run base/baseRes: halt, stats, memory stats, trace and team result.
func checkSplitRun(t *testing.T, label string, prog *asm.Program, cores, nt int, budget, k uint64,
	ffwd1, ffwd2 bool, base *Machine, baseRes *Result) {
	t.Helper()
	m := teamMachine(t, cores, prog, ffwd1)
	if res, err := m.Advance(k); err != nil || res != nil {
		t.Fatalf("%s: advance to %d: res=%v err=%v", label, k, res, err)
	}
	cp, err := m.Checkpoint()
	if err != nil {
		t.Fatalf("%s: checkpoint: %v", label, err)
	}
	m2, err := Restore(cp)
	if err != nil {
		t.Fatalf("%s: restore: %v", label, err)
	}
	if m2.Cycle() != k {
		t.Fatalf("%s: restored cycle = %d", label, m2.Cycle())
	}
	// A checkpoint of the restored machine must be byte-identical:
	// restore loses nothing.
	cp2, err := m2.Checkpoint()
	if err != nil {
		t.Fatalf("%s: re-checkpoint: %v", label, err)
	}
	if !bytes.Equal(cp, cp2) {
		t.Errorf("%s: re-checkpoint differs from the original", label)
	}
	m2.SetFastForward(ffwd2)
	res2, err := m2.Run(budget)
	if err != nil {
		t.Fatalf("%s: resumed run: %v", label, err)
	}
	if res2.Halt != baseRes.Halt {
		t.Errorf("%s: halt = %q, want %q", label, res2.Halt, baseRes.Halt)
	}
	if !reflect.DeepEqual(ignoreFastForwarded(res2.Stats), ignoreFastForwarded(baseRes.Stats)) {
		t.Errorf("%s: stats diverge:\n  split  %+v\n  single %+v", label, res2.Stats, baseRes.Stats)
	}
	if res2.Mem != baseRes.Mem {
		t.Errorf("%s: memory stats diverge:\n  split  %+v\n  single %+v", label, res2.Mem, baseRes.Mem)
	}
	if !trace.Same(m2.Trace(), base.Trace()) {
		t.Errorf("%s: trace diverges: digest %#x/%d, want %#x/%d", label,
			m2.Trace().Digest(), m2.Trace().Count(),
			base.Trace().Digest(), base.Trace().Count())
	}
	checkTeamResult(t, m2, nt)
}

func TestCheckpointResumeTeam(t *testing.T) {
	const cores, nt = 2, 8
	const budget = 2_000_000
	prog, err := asm.Assemble(sprintf(teamProgram, nt, nt), asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	base := teamMachine(t, cores, prog, true)
	baseRes, err := base.Run(budget)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkTeamResult(t, base, nt)
	total := baseRes.Stats.Cycles
	for _, k := range []uint64{1, 17, total / 3, total / 2, total - 1} {
		checkSplitRun(t, fmt.Sprintf("k=%d", k), prog, cores, nt, budget, k, true, true, base, baseRes)
	}
}

func TestCheckpointRefusesUnknownDevice(t *testing.T) {
	prog, err := asm.Assemble("main:\n\tli t0, -1\n\tli ra, 0\n\tp_ret\n", asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(DefaultConfig(1))
	if err := m.LoadProgram(prog); err != nil {
		t.Fatalf("load: %v", err)
	}
	m.AddDevice(plainDevice{})
	if _, err := m.Checkpoint(); err == nil {
		t.Fatal("checkpoint must refuse a device without Stateful")
	}
}

// plainDevice implements Device but not Stateful.
type plainDevice struct{}

func (plainDevice) Step(*Machine, uint64) {}

func TestMachineReset(t *testing.T) {
	const cores, nt = 2, 6
	prog, err := asm.Assemble(sprintf(teamProgram, nt, nt), asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	run := func(m *Machine) (*Result, uint64, uint64) {
		t.Helper()
		m.SetTrace(trace.New(0))
		res, err := m.Run(2_000_000)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res, m.Trace().Digest(), m.Trace().Count()
	}
	fresh := New(DefaultConfig(cores))
	if err := fresh.LoadProgram(prog); err != nil {
		t.Fatalf("load: %v", err)
	}
	wantRes, wantDig, wantCnt := run(fresh)

	m := New(DefaultConfig(cores))
	if err := m.LoadProgram(prog); err != nil {
		t.Fatalf("load: %v", err)
	}
	run(m) // dirty the machine
	for i := 0; i < 2; i++ {
		if err := m.Reset(prog); err != nil {
			t.Fatalf("reset %d: %v", i, err)
		}
		res, dig, cnt := run(m)
		if dig != wantDig || cnt != wantCnt {
			t.Fatalf("reset %d: digest %#x/%d, want %#x/%d", i, dig, cnt, wantDig, wantCnt)
		}
		if !reflect.DeepEqual(res.Stats, wantRes.Stats) {
			t.Fatalf("reset %d: stats diverge:\n  reset %+v\n  fresh %+v", i, res.Stats, wantRes.Stats)
		}
		checkTeamResult(t, m, nt)
	}
}

func TestReadSharedSliceBounds(t *testing.T) {
	m := New(DefaultConfig(1))
	const sharedBase = 0x80000000
	if _, ok := m.ReadSharedSlice(sharedBase, -1); ok {
		t.Error("negative length must fail")
	}
	if _, ok := m.ReadSharedSlice(sharedBase, 1<<30); ok {
		t.Error("a range past the top of the address space must fail")
	}
	if _, ok := m.ReadSharedSlice(0xFFFFFFFC, 2); ok {
		t.Error("a range wrapping the 32-bit address space must fail")
	}
	if v, ok := m.ReadSharedSlice(sharedBase, 4); !ok || len(v) != 4 {
		t.Errorf("small in-range read = (%v, %v), want 4 words", v, ok)
	}
	if v, ok := m.ReadSharedSlice(sharedBase, 0); !ok || len(v) != 0 {
		t.Errorf("zero-length read = (%v, %v), want empty ok", v, ok)
	}
}

// TestRestoreV1Checkpoint: checkpoints written before the sharded v2
// format — a bare gob stream with no magic prefix — must keep restoring
// bit-exactly. The fixture is an 8-core placed set/get run stopped at
// cycle 4000 with a digest recorder attached; the expected constants
// are the outcome of the original uninterrupted run.
func TestRestoreV1Checkpoint(t *testing.T) {
	cp, err := os.ReadFile("testdata/checkpoint_v1_8core.bin")
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	if bytes.HasPrefix(cp, checkpointMagic[:]) {
		t.Fatal("fixture has the v2 magic; it no longer exercises the v1 path")
	}
	m, err := Restore(cp)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if m.Cycle() != 4000 {
		t.Fatalf("restored cycle = %d, want 4000", m.Cycle())
	}
	res, err := m.Run(50_000_000)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	const wantCycles, wantRetired = 8683, 33332
	const wantDigest = uint64(0xb22e8eda05ed9d50)
	if res.Stats.Cycles != wantCycles || res.Stats.Retired != wantRetired {
		t.Errorf("resumed run: cycles=%d retired=%d, want %d/%d",
			res.Stats.Cycles, res.Stats.Retired, wantCycles, wantRetired)
	}
	if d := m.Trace().Digest(); d != wantDigest {
		t.Errorf("resumed digest = %#x, want %#x", d, wantDigest)
	}
}

// TestCheckpointV2Format: new checkpoints lead with the v2 magic, and a
// machine restored from the v1 fixture re-checkpoints in v2 form that
// restores to the same outcome — the upgrade path is lossless.
func TestCheckpointV2Format(t *testing.T) {
	v1, err := os.ReadFile("testdata/checkpoint_v1_8core.bin")
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	m, err := Restore(v1)
	if err != nil {
		t.Fatalf("restore v1: %v", err)
	}
	v2, err := m.Checkpoint()
	if err != nil {
		t.Fatalf("re-checkpoint: %v", err)
	}
	if !bytes.HasPrefix(v2, checkpointMagic[:]) {
		t.Fatal("re-checkpoint of a v1 machine must use the v2 format")
	}
	m2, err := Restore(v2)
	if err != nil {
		t.Fatalf("restore v2: %v", err)
	}
	res, err := m2.Run(50_000_000)
	if err != nil {
		t.Fatalf("run after upgrade: %v", err)
	}
	if res.Stats.Cycles != 8683 || m2.Trace().Digest() != 0xb22e8eda05ed9d50 {
		t.Errorf("upgraded checkpoint diverged: cycles=%d digest=%#x",
			res.Stats.Cycles, m2.Trace().Digest())
	}
}

// TestCheckpointResumeHostKnobMatrix splits one run at its midpoint and
// resumes it with fast-forward on and off, with the checkpoint leg
// itself run under both settings too: the checkpoint format and the
// stepper agree on bit-identical state no matter which setting produced
// or consumes a checkpoint.
func TestCheckpointResumeHostKnobMatrix(t *testing.T) {
	const cores, nt = 16, 48
	const budget = 4_000_000
	prog, err := asm.Assemble(sprintf(teamProgram, nt, nt), asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	base := teamMachine(t, cores, prog, true)
	baseRes, err := base.Run(budget)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkTeamResult(t, base, nt)
	split := baseRes.Stats.Cycles / 2
	for _, kc := range []bool{true, false} {
		for _, kr := range []bool{true, false} {
			checkSplitRun(t, fmt.Sprintf("ffwd %v->%v", kc, kr), prog, cores, nt, budget, split,
				kc, kr, base, baseRes)
		}
	}
}
