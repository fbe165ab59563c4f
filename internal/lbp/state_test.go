package lbp

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
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

// The checkpoint fixtures. checkpoint_v2_8core.bin was written by the
// build before the version-1 reader was deleted (EXPERIMENTS E23 has the
// recipe): an 8-core placed set/get run stopped at cycle 4000 with a
// digest recorder attached. checkpoint_v1_prefix.bin is the first KiB of
// the same machine in the retired magic-less version-1 format.
func fixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return data
}

// manifestOnly is a stream that ends after its manifest: what a hostile
// or damaged checkpoint needs to reach the configuration checks.
func manifestOnly(t testing.TB, mutate func(*Config)) []byte {
	t.Helper()
	man := checkpointManifest{Version: checkpointVersion, Cfg: DefaultConfig(8),
		ShardCores: checkpointShardCores}
	mutate(&man.Cfg)
	man.NumShards = (man.Cfg.Cores + checkpointShardCores - 1) / checkpointShardCores
	buf := bytes.NewBuffer(checkpointMagic[:])
	if err := gob.NewEncoder(buf).Encode(&man); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const pinChildEnv = "LBP_CHECKPOINT_PIN_CHILD"

// TestCheckpointV2Format is the cross-build pin on the one checkpoint
// format: a stream another build wrote restores, re-checkpoints to the
// very same bytes — so the test fails whenever a saved struct changes
// without a checkpointVersion bump — and runs to the end of the
// original uninterrupted run.
//
// gob numbers types process-wide in first-use order, so any gob value
// an earlier test encoded would renumber the stream; the comparison
// runs in a process of its own.
func TestCheckpointV2Format(t *testing.T) {
	if os.Getenv(pinChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointV2Format$")
		cmd.Env = append(os.Environ(), pinChildEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		return
	}
	want := fixture(t, "checkpoint_v2_8core.bin")
	m, err := Restore(want)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if m.Cycle() != 4000 {
		t.Fatalf("restored cycle = %d, want 4000", m.Cycle())
	}
	got, err := m.Checkpoint()
	if err != nil {
		t.Fatalf("re-checkpoint: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-checkpoint (%d bytes) differs from the fixture (%d bytes):"+
			" a saved struct changed without a checkpointVersion bump", len(got), len(want))
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

// TestRestoreV1Checkpoint: the magic-less version-1 format is refused
// by name, like any other bytes that are not a checkpoint.
func TestRestoreV1Checkpoint(t *testing.T) {
	_, err := Restore(fixture(t, "checkpoint_v1_prefix.bin"))
	var ce *CheckpointError
	if !errors.As(err, &ce) || !strings.Contains(err.Error(), "not a version-2 checkpoint") {
		t.Fatalf("restore of version-1 bytes: %v, want the not-a-version-2-checkpoint CheckpointError", err)
	}
}

// TestReadCheckpointRefusals: streams that stop short and manifests no
// entry point would build get a CheckpointError before any machine is
// allocated from them — RemoteRBs = -1 used to panic inside New, and
// 4096 cores (above MaxCores) used to be built.
func TestReadCheckpointRefusals(t *testing.T) {
	v2 := fixture(t, "checkpoint_v2_8core.bin")
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "magic"},
		{"magic only", v2[:8], "manifest"},
		{"mid-manifest", v2[:400], "manifest"},
		{"mid-shard", v2[:len(v2)/2], "shard"},
		{"RemoteRBs=-1", manifestOnly(t, func(c *Config) { c.RemoteRBs = -1 }), "RemoteRBs"},
		{"Cores=4096", manifestOnly(t, func(c *Config) { c.Cores = 4096 }), "cores"},
		{"ROBEntries=0", manifestOnly(t, func(c *Config) { c.ROBEntries = 0 }), "ROBEntries"},
		{"4 GiB banks", manifestOnly(t, func(c *Config) { c.Mem.SharedBytes = 1 << 29 }), "bound"},
		{"sane manifest, no shards", manifestOnly(t, func(*Config) {}), "shard"},
		{"round-robin pointer -9", badRoundRobin(t), "round-robin"},
	} {
		m, err := ReadCheckpoint(bytes.NewReader(tc.data))
		var ce *CheckpointError
		if m != nil || !errors.As(err, &ce) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: machine=%v err=%v, want a CheckpointError mentioning %q", tc.name, m != nil, err, tc.want)
		}
	}
}

// badRoundRobin is a checkpoint whose first core claims a stage rotation
// pointer outside [0, HartsPerCore): stepping would index the core's
// harts with it.
func badRoundRobin(t testing.TB) []byte {
	t.Helper()
	m := New(DefaultConfig(1))
	m.cores[0].issueRR = -9
	data, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzReadCheckpoint: whatever the bytes, ReadCheckpoint returns a
// machine or a CheckpointError — never a panic, never another error —
// and a machine it returns can be stepped: Advance may fault or make
// progress, never panic. Restore is where every piece of derived state
// (busy counts, the active list, the candidate masks) is rebuilt from
// whatever the stream claimed, so stepping is the property to fuzz.
func FuzzReadCheckpoint(f *testing.F) {
	v2 := fixture(f, "checkpoint_v2_8core.bin")
	f.Add(v2)
	f.Add(v2[:8])
	f.Add(v2[:400])
	f.Add(v2[:len(v2)/2])
	f.Add(fixture(f, "checkpoint_v1_prefix.bin"))
	f.Add(manifestOnly(f, func(c *Config) { c.RemoteRBs = -1 }))
	f.Add(manifestOnly(f, func(c *Config) { c.Cores = 4096 }))
	f.Add(badRoundRobin(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadCheckpoint(bytes.NewReader(data))
		var ce *CheckpointError
		if (err == nil) == (m == nil) || (err != nil && !errors.As(err, &ce)) {
			t.Fatalf("machine=%v err=%v (%T)", m != nil, err, err)
		}
		if m != nil {
			_, _ = m.Advance(256) // any outcome but a panic
		}
	})
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
