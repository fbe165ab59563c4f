package lbp

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
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

// The checkpoint fixtures. checkpoint_v6_8core.bin is an 8-core placed
// set/get run stopped at cycle 4000 with a digest recorder attached:
// the version-5 fixture of the same machine converted to version 6
// (EXPERIMENTS E46, E45 and E37 have the recipe, E29 the run it came
// from). checkpoint_v1_prefix.bin through checkpoint_v5_prefix.bin are
// the first KiB of the same machine in the five retired formats.
func fixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return data
}

// configOnly is a well-formed stream that carries a configuration and
// no machine: what a hostile or damaged checkpoint needs to reach the
// configuration checks.
func configOnly(t testing.TB, mutate func(*Config)) []byte {
	t.Helper()
	sm := savedMachine{Version: checkpointVersion, Cfg: DefaultConfig(8)}
	mutate(&sm.Cfg)
	return encode(t, &sm)
}

// encode writes sm as a checkpoint stream.
func encode(t testing.TB, sm *savedMachine) []byte {
	t.Helper()
	buf := bytes.NewBuffer(append([]byte(nil), checkpointMagic[:]...))
	if err := gob.NewEncoder(buf).Encode(sm); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const pinChildEnv = "LBP_CHECKPOINT_PIN_CHILD"

// TestCheckpointV6Format is the cross-build pin on the one checkpoint
// format: a stream another build wrote restores, re-checkpoints to the
// very same bytes — so the test fails whenever a saved struct changes
// without a checkpointVersion bump — and runs to the end of the
// original uninterrupted run.
//
// gob numbers types process-wide in first-use order, so any gob value
// an earlier test encoded would renumber the stream; the comparison
// runs in a process of its own.
func TestCheckpointV6Format(t *testing.T) {
	if os.Getenv(pinChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointV6Format$")
		cmd.Env = append(os.Environ(), pinChildEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		return
	}
	want := fixture(t, "checkpoint_v6_8core.bin")
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

// TestRestoreV1Checkpoint: the retired formats — magic-less version 1,
// LBPCKPT2 version 2 through LBPCKPT5 version 5 — are refused by name,
// like any other bytes that are not a checkpoint.
func TestRestoreV1Checkpoint(t *testing.T) {
	for _, name := range []string{"checkpoint_v1_prefix.bin", "checkpoint_v2_prefix.bin",
		"checkpoint_v3_prefix.bin", "checkpoint_v4_prefix.bin", "checkpoint_v5_prefix.bin"} {
		_, err := Restore(fixture(t, name))
		var ce *CheckpointError
		if !errors.As(err, &ce) || !strings.Contains(err.Error(), "not a version-6 checkpoint") {
			t.Errorf("restore of %s: %v, want the not-a-version-6-checkpoint CheckpointError", name, err)
		}
	}
}

// TestReadCheckpointRefusals: streams that stop short and states no
// entry point would build get a CheckpointError before any machine is
// allocated from them — RemoteRBs = -1 used to panic inside New, and
// 4096 cores (above MaxCores) used to be built.
func TestReadCheckpointRefusals(t *testing.T) {
	v6 := fixture(t, "checkpoint_v6_8core.bin")
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "magic"},
		{"magic only", v6[:8], "decoding"},
		{"first 400 bytes", v6[:400], "decoding"},
		{"mid-machine", v6[:len(v6)/2], "decoding"},
		{"RemoteRBs=-1", configOnly(t, func(c *Config) { c.RemoteRBs = -1 }), "RemoteRBs"},
		{"Cores=4096", configOnly(t, func(c *Config) { c.Cores = 4096 }), "cores"},
		{"ROBEntries=0", configOnly(t, func(c *Config) { c.ROBEntries = 0 }), "ROBEntries"},
		{"HopLat=0", configOnly(t, func(c *Config) { c.Mem.HopLat = 0 }), "HopLat"},
		{"4 GiB banks", configOnly(t, func(c *Config) { c.Mem.SharedBytes = 1 << 29 }), "bound"},
		{"sane configuration, no cores", configOnly(t, func(*Config) {}), "0 cores"},
		{"round-robin pointer -9", badRoundRobin(t), "round-robin"},
	} {
		m, err := Restore(tc.data)
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
	m.cores[0].IssueRR = -9
	data, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// rewrite decodes a checkpoint, lets edit change it, and encodes it
// again: a well-formed stream saying something no machine ever wrote —
// what byte mutation of a gob stream almost never produces.
func rewrite(t testing.TB, data []byte, edit func(*savedMachine)) []byte {
	t.Helper()
	var sm savedMachine
	if err := gob.NewDecoder(bytes.NewReader(data[len(checkpointMagic):])).Decode(&sm); err != nil {
		t.Fatal(err)
	}
	edit(&sm)
	return encode(t, &sm)
}

// added appends a zero element to *s and returns it: how a test adds a
// memory event, whose type mem does not export.
func added[E any](s *[]E) *E {
	var zero E
	*s = append(*s, zero)
	return &(*s)[len(*s)-1]
}

// Some of mem's event kinds (access.go), as a checkpoint numbers them:
// kinds 0 and 1 are a load's bank read, local and shared.
const (
	evSharedRead = 1
	evStoreDone  = 5
	evMessage    = 7
)

// hostileCheckpoint is one rewritten stream and the word its refusal
// must contain.
type hostileCheckpoint struct {
	name string
	data []byte
	want string
}

// hostileCheckpoints takes a 2-core team run to the first cycle with a
// bank read in flight and rewrites that checkpoint once per row.
// The first four used to restore without a word and end the process in
// Mem.Step on the first Advance; the over-capacity harts restored too.
func hostileCheckpoints(t testing.TB) []hostileCheckpoint {
	t.Helper()
	prog, err := asm.Assemble(sprintf(teamProgram, 8, 8), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(2))
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	read := -1
	for read < 0 {
		if res, err := m.Advance(1); res != nil || err != nil {
			t.Fatalf("no bank read in flight before the run ended (res=%v err=%v)", res, err)
		}
		st := m.Mem.CaptureGlobalState()
		for i := range st.Events {
			if st.Events[i].Kind <= evSharedRead { // a load's bank read, local or shared
				read = i
			}
		}
	}
	base, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// emptyRB is a hart whose result buffer is empty at the checkpoint.
	emptyRB := uint32(0)
	for m.harts[emptyRB].Exec != noSlot {
		emptyRB++
	}
	harts := uint32(2 * HartsPerCore)
	var out []hostileCheckpoint
	for _, row := range []struct {
		name string
		edit func(*savedMachine)
		want string
	}{
		{"event bank 9999", func(sm *savedMachine) { sm.Mem.Events[read].Core = 9999 }, "bank 9999"},
		{"event bank -1", func(sm *savedMachine) { sm.Mem.Events[read].Core = -1 }, "bank -1"},
		{"event word 1<<30", func(sm *savedMachine) { sm.Mem.Events[read].Off = 1 << 30 }, "word 1073741824"},
		{"load of hart 8 of 8", func(sm *savedMachine) { sm.Mem.Events[read].Hart = harts }, "names hart 8 of 8"},
		{"store ack of hart 8 of 8", func(sm *savedMachine) {
			e := added(&sm.Mem.Events)
			sm.Mem.Seq++
			e.Cycle, e.Seq, e.Kind, e.Hart = sm.Cycle+1, sm.Mem.Seq, evStoreDone, harts
		}, "names hart 8 of 8"},
		{"message to hart 8 of 8", func(sm *savedMachine) {
			e := added(&sm.Mem.Events)
			sm.Mem.Seq++
			e.Cycle, e.Seq, e.Kind, e.Hart, e.MsgKind = sm.Cycle+1, sm.Mem.Seq, evMessage, harts, ctlSignal
		}, "names hart 8 of 8"},
		{"event kind 200", func(sm *savedMachine) { sm.Mem.Events[read].Kind = 200 }, "unknown kind"},
		{"access width 3", func(sm *savedMachine) { sm.Mem.Events[read].Width = 3 }, "width 3"},
		{"event due at the checkpoint's cycle", func(sm *savedMachine) {
			sm.Mem.Events[read].Cycle = sm.Cycle
		}, "not after the clock"},
		{"event due before the checkpoint's cycle", func(sm *savedMachine) {
			sm.Mem.Events[read].Cycle = sm.Cycle - 1
		}, "not after the clock"},
		{"event seq 0", func(sm *savedMachine) { sm.Mem.Events[read].Seq = 0 }, "has seq 0"},
		{"event seq past the saved Seq", func(sm *savedMachine) {
			sm.Mem.Events[read].Seq = sm.Mem.Seq + 1
		}, "outside [1,"},
		{"event seq repeated", func(sm *savedMachine) {
			sm.Mem.Events = append(sm.Mem.Events, sm.Mem.Events[read])
		}, "two events of seq"},
		{"one link short", func(sm *savedMachine) {
			sm.Mem.Links = sm.Mem.Links[1:]
		}, "links"},
		{"message kind past p_swre", func(sm *savedMachine) {
			e := added(&sm.Mem.Events)
			sm.Mem.Seq++
			e.Cycle, e.Seq, e.Kind, e.MsgKind = sm.Cycle+1, sm.Mem.Seq, evMessage, ctlSwre+1
		}, "control-message kind 4"},
		{"result buffer over depth", func(sm *savedMachine) {
			sm.Harts[1].Remote[0].Vals = make([]uint32, sm.Cfg.RBDepth+1)
		}, "result buffer"},
		{"instruction table over capacity", func(sm *savedMachine) {
			sm.Harts[1].IT = 1<<(sm.Cfg.ITEntries+1) - 1
		}, "instruction table"},
		{"load past the ring of a hart with no result buffer", func(sm *savedMachine) {
			// Due on the next cycle, the load would be delivered into
			// slot 255 of a 16-slot ring before the hart could fault.
			e := &sm.Mem.Events[read]
			e.Hart, e.Cycle = emptyRB, sm.Cycle+1
		}, "result buffer is empty"},
		{"ROBEntries=65", func(sm *savedMachine) { sm.Cfg.ROBEntries = 65 }, "ROBEntries"},
		{"ITEntries=65", func(sm *savedMachine) { sm.Cfg.ITEntries = 65 }, "ITEntries"},
		{"one hart short", func(sm *savedMachine) {
			sm.Harts = sm.Harts[1:]
		}, "harts"},
		{"page past the family", func(sm *savedMachine) {
			sm.Mem.Shared = append(sm.Mem.Shared, mem.Page{Index: 1 << 20, Words: new([256]uint32)})
		}, "past the family"},
		{"duplicate page", func(sm *savedMachine) {
			sm.Mem.Local = append(sm.Mem.Local, sm.Mem.Local[len(sm.Mem.Local)-1])
		}, "ascend"},
		{"descending pages", func(sm *savedMachine) {
			l := sm.Mem.Local
			l[0], l[1] = l[1], l[0]
		}, "ascend"},
		{"word past a partial last page", func(sm *savedMachine) {
			// 4 bytes off the bank leave 255 of its last page's 256 words
			// inside it; the bank's word 16383 is the 256th.
			sm.Cfg.Mem.SharedBytes -= 4
			w := new([256]uint32)
			w[255] = 1
			sm.Mem.Shared = []mem.Page{{Index: int32(sm.Cfg.Cores*64 - 1), Words: w}}
		}, "past its bank"},
	} {
		out = append(out, hostileCheckpoint{row.name, rewrite(t, base, row.edit), row.want})
	}

	// The reorder-buffer rows need a hart whose youngest entry waits in
	// the instruction table behind an older one: the same run, a few
	// cycles on. Each row edits one field of the hart or of that entry.
	robHart := -1
	for robHart < 0 {
		if res, err := m.Advance(1); res != nil || err != nil {
			t.Fatalf("no hart with an unissued reorder-buffer entry behind another before the run ended (res=%v err=%v)", res, err)
		}
		for _, h := range m.harts {
			if h.RobN >= 2 && h.RobN < len(h.Rob) && !h.Rob[h.robSlot(h.RobN-1)].Issued {
				robHart = int(h.gid)
				break
			}
		}
	}
	deep, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	h := m.harts[robHart]
	young, free := uint8(h.robSlot(h.RobN-1)), uint8(h.robSlot(h.RobN))
	for _, row := range []struct {
		name string
		edit func(sh *hart)
		want string
	}{
		{"instruction table misses an unissued uop", func(sh *hart) { sh.IT &^= 1 << young }, "in the instruction table=false"},
		{"instruction table holds an issued uop", func(sh *hart) { sh.Rob[young].Issued = true }, "in the instruction table=true"},
		{"instruction table names a free slot", func(sh *hart) { sh.IT |= 1 << free }, "names free slots"},
		{"uop depends on itself", func(sh *hart) { sh.Rob[young].Dep1 = young }, "not older"},
		{"uop depends on a free slot", func(sh *hart) { sh.Rob[young].Dep2 = free }, "free or not older"},
		{"result buffer names a free slot", func(sh *hart) { sh.Exec = free }, "names free slot"},
		{"rob head past the ring", func(sh *hart) { sh.RobHead = len(sh.Rob) }, "rob head"},
		{"more entries than the ring", func(sh *hart) { sh.RobN = len(sh.Rob) + 1 }, "rob head"},
	} {
		out = append(out, hostileCheckpoint{row.name, rewrite(t, deep, func(sm *savedMachine) {
			row.edit(sm.Harts[robHart])
		}), row.want})
	}
	v6 := fixture(t, "checkpoint_v6_8core.bin")
	for _, row := range fixtureEdits {
		out = append(out, hostileCheckpoint{row.name, rewrite(t, v6, func(sm *savedMachine) {
			row.edit.apply(t, sm)
		}), row.want})
	}
	return out
}

// A fieldEdit sets one number or bool of a decoded checkpoint, named by
// its path from savedMachine as leaves spells it, to value.
type fieldEdit struct {
	path  string
	value int64
}

func (e fieldEdit) apply(t testing.TB, sm *savedMachine) {
	t.Helper()
	for _, l := range leaves(nil, "", reflect.ValueOf(sm).Elem()) {
		if l.path == e.path {
			l.set(e.value)
			return
		}
	}
	t.Fatalf("the checkpoint has no field %s", e.path)
}

// fixtureEdits are one-field edits of checkpoint_v6_8core.bin, each a
// machine no run reaches, and the words of check's refusal. The format
// before check took every one of them: four stalled the run into the
// livelock fault and three changed its answer (ROADMAP). At cycle 4000
// harts 23-31 run: hart 23 has a mul in its result buffer at pc 0x120
// and the fetch buffer full, hart 24 one done addi s4 (x20), hart 26 a
// store acknowledgement in flight, hart 28 a done entry ahead of an
// unissued addi s5, hart 30 an addi issued into its result buffer,
// hart 31 one unissued entry.
var fixtureEdits = []struct {
	name string
	edit fieldEdit
	want string
}{
	{"rob entry's code word 0xffffffff", fieldEdit{"Mem.Code[72]", 0xffffffff}, "holds no instruction at pc 0x120"},
	{"inflight count 5, no access in flight", fieldEdit{"Harts[23].InflightMem", 5}, "counts 5 memory accesses in flight, 0 are"},
	{"inflight count -3", fieldEdit{"Harts[26].InflightMem", -3}, "counts -3 memory accesses in flight, 1 are"},
	{"issued, not done uop with an empty result buffer", fieldEdit{"Harts[30].Exec", noSlot}, "issued and not done outside the result buffer"},
	{"memory wait with no load in flight", fieldEdit{"Harts[30].Rob[0].MemWait", 1}, "0 loads in flight"},
	{"clock 0", fieldEdit{"Cycle", 0}, "past the clock"},
	{"result buffer holds a done uop", fieldEdit{"Harts[24].Exec", 0}, "done=true"},
	{"last writer is a done uop", fieldEdit{"Harts[24].LastWriter[20]", 0}, "x20's last writer is slot 0"},
	{"free hart holding rob entries", fieldEdit{"Harts[23].State", int64(hartFree)}, "holds work"},
	{"load value parked with no load in flight", fieldEdit{"Harts[24].LoadVal", 7}, "parks a load value"},
	{"last commit after the clock", fieldEdit{"Harts[24].LastCommit", 4001}, "past the clock"},
	{"dependence on a producer of another register", fieldEdit{"Harts[28].Rob[1].Dep1", 0}, "does not produce x21"},
	{"fetch buffer at an unmapped pc", fieldEdit{"Harts[27].IB.PC", 0x40000000}, "fetch buffer holds no instruction"},
	{"unissued uop missing from the instruction table", fieldEdit{"Harts[31].IT", 0}, "in the instruction table=false"},
}

// leaf is one settable number or bool of a decoded checkpoint.
type leaf struct {
	path string
	v    reflect.Value
}

// leaves appends the numbers and bools reachable from v through
// exported fields, elements and pointers, depth first, with their paths.
func leaves(out []leaf, path string, v reflect.Value) []leaf {
	switch v.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return append(out, leaf{path, v})
	case reflect.Pointer:
		if !v.IsNil() {
			return leaves(out, path, v.Elem())
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			out = leaves(out, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() {
				out = leaves(out, strings.TrimPrefix(path+"."+f.Name, "."), v.Field(i))
			}
		}
	}
	return out
}

// set stores x in the leaf, truncated to its type (a bool is x's low bit).
func (l leaf) set(x int64) {
	switch l.v.Kind() {
	case reflect.Bool:
		l.v.SetBool(x&1 != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		l.v.SetInt(x)
	default:
		l.v.SetUint(uint64(x))
	}
}

// fuzzEditCycles bounds the run of a machine FuzzRestoreEdit restores:
// the fixture's run ends 4,683 cycles after its checkpoint, and an edit
// that stalls a hart meets the livelock fault only 100,000 cycles on.
const fuzzEditCycles = 10_000

// FuzzRestoreEdit is FuzzReadCheckpoint for streams that stay
// well-formed. The input is a list of (field, value) varint pairs: a
// field is a leaf of the decoded checkpoint_v6_8core.bin by its index in
// leaves order (modulo their number), set to the value; the stream is
// re-encoded and restored. Restore answers a CheckpointError, or a
// machine that check holds to after every cycle of its run, to the end,
// a fault or fuzzEditCycles. The seeds are fixtureEdits and no edit.
func FuzzRestoreEdit(f *testing.F) {
	v6 := fixture(f, "checkpoint_v6_8core.bin")
	var sm savedMachine
	if err := gob.NewDecoder(bytes.NewReader(v6[len(checkpointMagic):])).Decode(&sm); err != nil {
		f.Fatal(err)
	}
	index := map[string]uint64{}
	for i, l := range leaves(nil, "", reflect.ValueOf(&sm).Elem()) {
		index[l.path] = uint64(i)
	}
	f.Add([]byte{})
	for _, row := range fixtureEdits {
		f.Add(binary.AppendVarint(binary.AppendUvarint(nil, index[row.edit.path]), row.edit.value))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		data := rewrite(t, v6, func(sm *savedMachine) {
			ls := leaves(nil, "", reflect.ValueOf(sm).Elem())
			for len(in) > 0 {
				i, n := binary.Uvarint(in)
				if n <= 0 {
					return
				}
				x, k := binary.Varint(in[n:])
				if k <= 0 {
					return
				}
				in = in[n+k:]
				ls[i%uint64(len(ls))].set(x)
			}
		})
		m, err := Restore(data)
		if err != nil {
			if ce := (*CheckpointError)(nil); !errors.As(err, &ce) {
				t.Fatalf("restore: %v (%T)", err, err)
			}
			return
		}
		for range fuzzEditCycles {
			res, err := m.Advance(1)
			if cerr := m.check(); cerr != nil {
				t.Fatalf("cycle %d: %v", m.cycle, cerr)
			}
			if res != nil || err != nil {
				return
			}
		}
	})
}

// unsortedEventsCheckpoint takes a mid-run checkpoint of a traced 2-core
// team program at the first cycle with a control message in flight and
// adds two ending-hart signals, to harts 0 and 1, due on that message's
// cycle (sorted, in (cycle, seq) order as a capture writes). Two
// deliveries on one cycle record their trace events in seq order, so
// the digest sees the order the wheel dispatches them in. The second
// stream (unsorted) is the first reversed — every event out of cycle
// order and the two signals swapped: not what a capture writes, but the
// same machine, which must restore and run to the same end. Only
// restore's sort by (cycle, seq) can put the signals back — the wheel
// buckets events by cycle and keeps each bucket in arrival order.
func unsortedEventsCheckpoint(t testing.TB) (sorted, unsorted []byte) {
	t.Helper()
	prog, err := asm.Assemble(sprintf(teamProgram, 8, 8), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(2))
	m.SetTrace(trace.New(0))
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	msg := -1
	for msg < 0 {
		if res, err := m.Advance(1); res != nil || err != nil {
			t.Fatalf("never a message in flight (res=%v err=%v)", res, err)
		}
		for i, e := range m.Mem.CaptureGlobalState().Events {
			if e.Kind == evMessage {
				msg = i
			}
		}
	}
	cp, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	signals := func(reverse bool) []byte {
		return rewrite(t, cp, func(sm *savedMachine) {
			e := sm.Mem.Events[msg]
			for tgt := range uint32(2) {
				sm.Mem.Seq++
				e.Seq, e.Hart, e.MsgKind = sm.Mem.Seq, tgt, ctlSignal
				sm.Mem.Events = append(sm.Mem.Events, e)
			}
			evs := sm.Mem.Events
			sort.Slice(evs, func(i, j int) bool {
				return cmp.Or(cmp.Compare(evs[i].Cycle, evs[j].Cycle), cmp.Compare(evs[i].Seq, evs[j].Seq)) < 0
			})
			if reverse {
				slices.Reverse(sm.Mem.Events)
			}
		})
	}
	return signals(false), signals(true)
}

// TestRestoreUnsortedEvents: a checkpoint whose events are out of
// (cycle, seq) order restores to the machine the sorted one does.
func TestRestoreUnsortedEvents(t *testing.T) {
	sorted, unsorted := unsortedEventsCheckpoint(t)
	var runs [2]*Result
	var recs [2]*trace.Recorder
	for i, data := range [][]byte{sorted, unsorted} {
		m, err := Restore(data)
		if err != nil {
			t.Fatal(err)
		}
		if runs[i], err = m.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		recs[i] = m.Trace()
	}
	if !trace.Same(recs[0], recs[1]) || !reflect.DeepEqual(runs[0].Stats, runs[1].Stats) {
		t.Errorf("unsorted events run to digest %#x/%d, sorted to %#x/%d",
			recs[1].Digest(), recs[1].Count(), recs[0].Digest(), recs[0].Count())
	}
}

// TestHostileCheckpoints: a well-formed stream that contradicts its own
// configuration is a CheckpointError before any machine is returned.
func TestHostileCheckpoints(t *testing.T) {
	for _, h := range hostileCheckpoints(t) {
		m, err := Restore(h.data)
		var ce *CheckpointError
		if m != nil || !errors.As(err, &ce) || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%s: machine=%v err=%v, want a CheckpointError mentioning %q", h.name, m != nil, err, h.want)
		}
		t.Logf("%s: %v", h.name, err)
	}
}

// zeroPageCheckpoint takes a mid-run checkpoint of a 2-core team
// program (orig) and rewrites it so that every page reads all zeros
// (zeroed): a stream no machine writes (capture leaves such pages out),
// and one that must restore without making a page resident.
func zeroPageCheckpoint(t testing.TB) (orig, zeroed []byte) {
	t.Helper()
	prog, err := asm.Assemble(sprintf(teamProgram, 8, 8), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(2))
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if res, err := m.Advance(300); res != nil || err != nil {
		t.Fatalf("the run ended before cycle 300 (res=%v err=%v)", res, err)
	}
	orig, err = m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return orig, rewrite(t, orig, func(sm *savedMachine) {
		for _, pages := range [][]mem.Page{sm.Mem.Local, sm.Mem.Shared} {
			for i := range pages {
				pages[i].Words = new([256]uint32)
			}
		}
	})
}

// residentPages counts the bank pages m's memory system holds. mem
// keeps that count to its own tests, so it is read here by reflection
// (a renamed field panics the test rather than passing it).
func residentPages(m *Machine) int {
	sys := reflect.ValueOf(m.Mem).Elem()
	return sys.FieldByName("local").FieldByName("written").Len() +
		sys.FieldByName("shared").FieldByName("written").Len()
}

// TestZeroPagesAttachNothing: restoring pages that read all zeros
// attaches none of them, so the restored machine holds no page (the
// checkpoint they replaced restores with some).
func TestZeroPagesAttachNothing(t *testing.T) {
	orig, zeroed := zeroPageCheckpoint(t)
	for _, c := range []struct {
		name string
		data []byte
		zero bool
	}{{"original", orig, false}, {"zero pages", zeroed, true}} {
		m, err := Restore(c.data)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := residentPages(m); (n == 0) != c.zero {
			t.Errorf("%s: %d pages resident after restore", c.name, n)
		}
	}
}

// TestCheckpointCarriesEveryMessageKind: the reduction program puts all
// four control-message kinds on the links — fork starts, ending signals,
// p_swre values, the join. At the first cycle each kind is in flight the
// machine checkpoints, restores to the same bytes and finishes exactly
// like the uninterrupted run.
func TestCheckpointCarriesEveryMessageKind(t *testing.T) {
	const budget = 2_000_000
	prog, err := asm.Assemble(swreReductionProgram, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	base := teamMachine(t, 1, prog, true)
	baseRes, err := base.Run(budget)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	m := teamMachine(t, 1, prog, true)
	seen := map[uint8]bool{}
	for len(seen) < len(ctlNames) {
		if res, err := m.Advance(1); res != nil || err != nil {
			break
		}
		var kind uint8
		fresh := false
		for _, e := range m.Mem.CaptureGlobalState().Events {
			if e.Kind == evMessage && !seen[e.MsgKind] {
				kind, fresh = e.MsgKind, true
				seen[kind] = true
			}
		}
		if !fresh {
			continue
		}
		label := fmt.Sprintf("%s in flight at cycle %d", ctlNames[kind], m.Cycle())
		t.Log(label)
		cp, err := m.Checkpoint()
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", label, err)
		}
		m2, err := Restore(cp)
		if err != nil {
			t.Fatalf("%s: restore: %v", label, err)
		}
		if cp2, err := m2.Checkpoint(); err != nil || !bytes.Equal(cp, cp2) {
			t.Errorf("%s: re-checkpoint differs from the original (err=%v)", label, err)
		}
		res2, err := m2.Run(budget)
		if err != nil {
			t.Fatalf("%s: resumed run: %v", label, err)
		}
		if !reflect.DeepEqual(ignoreFastForwarded(res2.Stats), ignoreFastForwarded(baseRes.Stats)) ||
			res2.Mem != baseRes.Mem || !trace.Same(m2.Trace(), base.Trace()) {
			t.Errorf("%s: resumed run diverges: %+v digest %#x, want %+v digest %#x", label,
				res2.Stats, m2.Trace().Digest(), baseRes.Stats, base.Trace().Digest())
		}
	}
	for k, name := range ctlNames {
		if !seen[uint8(k)] {
			t.Errorf("no %s message was ever in flight", name)
		}
	}
}

// FuzzReadCheckpoint: whatever the bytes, Restore returns a machine or
// a CheckpointError — never a panic, never another error — and a
// machine it returns can be stepped: Advance may fault or make
// progress, never panic. Restore is where every piece of derived state
// (busy counts, the active list, the candidate masks, the attached
// pages) is rebuilt from whatever the stream claimed, so stepping is the
// property to fuzz.
func FuzzReadCheckpoint(f *testing.F) {
	v6 := fixture(f, "checkpoint_v6_8core.bin")
	f.Add(v6)
	f.Add(v6[:8])
	f.Add(v6[:400])
	f.Add(v6[:len(v6)/2])
	f.Add(fixture(f, "checkpoint_v1_prefix.bin"))
	f.Add(configOnly(f, func(c *Config) { c.RemoteRBs = -1 }))
	f.Add(configOnly(f, func(c *Config) { c.Cores = 4096 }))
	f.Add(badRoundRobin(f))
	f.Add(fixture(f, "checkpoint_v2_prefix.bin"))
	_, zeroed := zeroPageCheckpoint(f)
	f.Add(zeroed)
	for _, h := range hostileCheckpoints(f) {
		f.Add(h.data)
	}
	f.Add(fixture(f, "checkpoint_v3_prefix.bin"))
	f.Add(fixture(f, "checkpoint_v4_prefix.bin"))
	f.Add(fixture(f, "checkpoint_v5_prefix.bin"))
	_, unsorted := unsortedEventsCheckpoint(f)
	f.Add(unsorted)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Restore(data)
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
