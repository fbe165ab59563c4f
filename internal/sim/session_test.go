package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/lbp"
	"repro/internal/perf"
	"repro/internal/workloads"
)

// outcome is everything a split run must reproduce bit-exactly.
// FastForwarded is excluded: it is a host-side diagnostic, and the
// resume leg legitimately single-steps the quiescent cycle it wakes on.
type outcome struct {
	halt   string
	stats  lbp.Stats
	mem    interface{}
	digest uint64
	events uint64
	perf   *perf.Snapshot
}

func runToEnd(t *testing.T, sess *Session) (*lbp.Result, outcome) {
	t.Helper()
	res, err := sess.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	st := res.Stats
	st.FastForwarded = 0
	return res, outcome{
		halt:   res.Halt,
		stats:  st,
		mem:    res.Mem,
		digest: sess.Recorder().Digest(),
		events: sess.Recorder().Count(),
		perf:   sess.PerfSnapshot(),
	}
}

// splitRun advances a fresh session of spec k cycles, checkpoints it,
// resumes it and runs it to the end, each leg under its own
// fast-forward setting; it returns the resumed session and its outcome.
func splitRun(t *testing.T, label string, spec Spec, k uint64, ffwd1, ffwd2 bool) (*Session, outcome) {
	t.Helper()
	sess, err := New(spec)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sess.Machine().SetFastForward(ffwd1)
	if res, err := sess.Advance(k); err != nil || res != nil {
		t.Fatalf("%s: advance to %d: res=%v err=%v", label, k, res, err)
	}
	cp, err := sess.Checkpoint()
	if err != nil {
		t.Fatalf("%s: checkpoint: %v", label, err)
	}
	t.Logf("%s: checkpoint at cycle %d is %d bytes", label, k, len(cp))
	resumed, err := Resume(cp, ResumeSpec{MaxCycles: spec.MaxCycles})
	if err != nil {
		t.Fatalf("%s: resume: %v", label, err)
	}
	resumed.Machine().SetFastForward(ffwd2)
	if resumed.Machine().Cycle() != k {
		t.Fatalf("%s: resumed at cycle %d, want %d", label, resumed.Machine().Cycle(), k)
	}
	_, got := runToEnd(t, resumed)
	return resumed, got
}

// TestCheckpointResumeEquivalenceMatrix is the checkpoint acceptance
// test: Run(N) must equal Run(k) + Checkpoint + Resume + run-to-end —
// same halt, stats, memory stats, digest, event count and perf
// snapshot — for fast-forward on and off on both sides of the split.
func TestCheckpointResumeEquivalenceMatrix(t *testing.T) {
	legs := []bool{true, false} // fast-forward
	for _, h := range []int{4, 16, 64} {
		h := h
		if h == 64 && testing.Short() {
			continue
		}
		prog, err := workloads.BuildMatmul(workloads.Base, h)
		if err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		cfg := workloads.MatmulConfig(h)
		spec := Spec{
			Program:   prog,
			Config:    &cfg,
			MaxCycles: workloads.MaxMatmulCycles(h),
			Trace:     TraceSpec{Digest: true},
			Profile:   true,
		}
		base, err := New(spec)
		if err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		baseRes, want := runToEnd(t, base)
		k := baseRes.Stats.Cycles / 2

		for _, first := range legs {
			for _, second := range legs {
				label := fmt.Sprintf("h=%d ffwd %v|%v", h, first, second)
				resumed, got := splitRun(t, label, spec, k, first, second)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: split run diverged:\n got %+v\nwant %+v", label, got, want)
				}
				if err := workloads.VerifyMatmul(resumed.Machine(), prog, workloads.Base, h); err != nil {
					t.Errorf("%s: %v", label, err)
				}
			}
		}
	}
}

// setGetProgram compiles the placed set/get program (the Figure 4
// layout: hart t owns chunk words of core t/4's bank) for an n-core
// machine. It is the workload of the large-geometry tests below — all
// 4n harts fork, so the serpentine wave crosses every core and the
// full router hierarchy carries traffic.
func setGetProgram(t testing.TB, cores, chunk int) *asm.Program {
	t.Helper()
	src := fmt.Sprintf(`
#define H %d
#define CHUNK %d
#define RESW 128

int *vchunk(int t) { return lbp_bank_ptr(t >> 2) + RESW + (t & 3) * CHUNK; }

void main() {
	int t;
	#pragma omp parallel for
	for (t = 0; t < H; t++) {
		int *p; int i;
		p = vchunk(t);
		for (i = 0; i < CHUNK; i++) { *p = t + i; p = p + 1; }
	}
	#pragma omp parallel for
	for (t = 0; t < H; t++) {
		int *p; int i; int acc;
		p = vchunk(t);
		acc = 0;
		for (i = 0; i < CHUNK; i++) { acc = acc + *p; p = p + 1; }
		*vchunk(t) = acc;
	}
}
`, cores*4, chunk)
	opt := cc.DefaultOptions()
	opt.Cores = cores
	opt.BankReserveBytes = 512
	asmText, err := cc.BuildProgram(src, opt)
	if err != nil {
		t.Fatalf("%d cores: compile: %v", cores, err)
	}
	prog, err := asm.Assemble(asmText, asm.Options{})
	if err != nil {
		t.Fatalf("%d cores: assemble: %v", cores, err)
	}
	return prog
}

// TestEquivalence256Cores: on a 256-core machine — two router levels
// deeper than the paper's 64-core chip — fast-forward on and off must
// produce one outcome, digest included.
func TestEquivalence256Cores(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: 256-core machine")
	}
	prog := setGetProgram(t, 256, 16)
	spec := Spec{
		Program:   prog,
		Cores:     256,
		MaxCycles: 50_000_000,
		Trace:     TraceSpec{Digest: true},
	}
	var want outcome
	for i, ffwd := range []bool{true, false} {
		sess, err := New(spec)
		if err != nil {
			t.Fatalf("ffwd %v: %v", ffwd, err)
		}
		sess.Machine().SetFastForward(ffwd)
		_, got := runToEnd(t, sess)
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ffwd %v diverged from ffwd true:\n got %+v\nwant %+v", ffwd, got, want)
		}
	}
}

// TestCheckpointResume1024Cores: split-run bit-identity at the largest
// supported geometry. The split leg advances with fast-forward off,
// checkpoints (the log line has its size) and resumes with it on; halt,
// stats, memory stats and digest must match the uninterrupted run
// exactly.
func TestCheckpointResume1024Cores(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: 1024-core machine")
	}
	prog := setGetProgram(t, 1024, 16)
	spec := Spec{
		Program:   prog,
		Cores:     1024,
		MaxCycles: 50_000_000,
		Trace:     TraceSpec{Digest: true},
	}
	base, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, want := runToEnd(t, base)
	k := baseRes.Stats.Cycles / 2

	if _, got := splitRun(t, "1024 cores", spec, k, false, true); !reflect.DeepEqual(got, want) {
		t.Errorf("split run diverged:\n got %+v\nwant %+v", got, want)
	}
}

// sensorDevices builds the Figure 16 device set for prog; called twice
// per test so the resumed machine gets fresh, identically configured
// devices (their mutable state comes from the checkpoint).
func sensorDevices(prog *asm.Program) ([]lbp.Device, *lbp.Actuator) {
	var devices []lbp.Device
	for i := 0; i < 4; i++ {
		devices = append(devices, &lbp.Sensor{
			ValueAddr: prog.Symbols["sval"] + uint32(4*i),
			FlagAddr:  prog.Symbols["sflag"] + uint32(4*i),
			Events: []lbp.SensorEvent{
				{Cycle: 1000 + uint64(101*i), Value: uint32(10 * (i + 1))},
				{Cycle: 4000 + uint64(57*i), Value: uint32(20 * (i + 1))},
			},
		})
	}
	act := &lbp.Actuator{
		ValueAddr: prog.Symbols["factuator"],
		SeqAddr:   prog.Symbols["aseq"],
	}
	return append(devices, act), act
}

// TestCheckpointResumeDevices splits a device-driven run in the middle
// of the sensor schedule: the resumed machine reattaches fresh devices,
// restores their cursors from the checkpoint, and must reproduce the
// uninterrupted run's actuator writes and cycle count exactly.
func TestCheckpointResumeDevices(t *testing.T) {
	asmText, err := cc.BuildProgram(workloads.SensorFusionSource(2), cc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asmText, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*Session, *lbp.Actuator) {
		devices, act := sensorDevices(prog)
		sess, err := New(Spec{
			Program:   prog,
			Cores:     1,
			Devices:   devices,
			MaxCycles: 50_000_000,
			Trace:     TraceSpec{Digest: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sess, act
	}
	base, baseAct := run()
	baseRes, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(baseAct.Writes) == 0 {
		t.Fatal("sensor fusion produced no actuator writes")
	}

	// Split between the two sensor rounds: some device state (cursors,
	// observed writes) is already non-initial at the checkpoint.
	const k = 2500
	sess, _ := run()
	if res, err := sess.Advance(k); err != nil || res != nil {
		t.Fatalf("advance: res=%v err=%v", res, err)
	}
	cp, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	devices, act := sensorDevices(prog)
	resumed, err := Resume(cp, ResumeSpec{Devices: devices, MaxCycles: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != baseRes.Stats.Cycles {
		t.Errorf("cycles = %d, want %d", res.Stats.Cycles, baseRes.Stats.Cycles)
	}
	if !reflect.DeepEqual(act.Writes, baseAct.Writes) {
		t.Errorf("actuator writes diverged:\n got %+v\nwant %+v", act.Writes, baseAct.Writes)
	}
	if resumed.Recorder().Digest() != base.Recorder().Digest() ||
		resumed.Recorder().Count() != base.Recorder().Count() {
		t.Errorf("trace diverged: %#x/%d, want %#x/%d",
			resumed.Recorder().Digest(), resumed.Recorder().Count(),
			base.Recorder().Digest(), base.Recorder().Count())
	}
	// A session with devices must refuse to be reset for pooling.
	if err := resumed.Reset(prog); err == nil {
		t.Error("Reset must refuse a session with devices")
	}
}

// TestRunWithCheckpointsResume is E13 end to end at the library level,
// in lbp-run -checkpoint's call shape (RunSliced with a saving check):
// periodic checkpointing does not disturb the run, and resuming the
// last saved checkpoint finishes with the single-run digest.
func TestRunWithCheckpointsResume(t *testing.T) {
	prog, err := workloads.BuildMatmul(workloads.Base, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloads.MatmulConfig(16)
	spec := Spec{
		Program:   prog,
		Config:    &cfg,
		MaxCycles: workloads.MaxMatmulCycles(16),
		Trace:     TraceSpec{Digest: true},
	}
	base, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, want := runToEnd(t, base)

	sess, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	var last []byte
	var saves int
	res, err := sess.RunSliced(1000, func(cycle uint64) error {
		if cycle == 0 || cycle >= sess.MaxCycles() {
			return nil
		}
		cp, err := sess.Checkpoint()
		last = cp
		saves++
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if saves == 0 {
		t.Fatal("no checkpoints were saved (run shorter than the interval?)")
	}
	if sess.Recorder().Digest() != want.digest || res.Halt != want.halt {
		t.Errorf("checkpointing run diverged: digest %#x, want %#x", sess.Recorder().Digest(), want.digest)
	}

	resumed, err := Resume(last, ResumeSpec{MaxCycles: workloads.MaxMatmulCycles(16)})
	if err != nil {
		t.Fatal(err)
	}
	_, got := runToEnd(t, resumed)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resume of last checkpoint diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunSliced: slicing a run for cooperative cancellation never
// disturbs the simulated results, and a run stopped by a check error
// pauses at a cycle boundary from which checkpoint+resume reproduces
// the uninterrupted run bit-exactly.
func TestRunSliced(t *testing.T) {
	prog, err := workloads.BuildMatmul(workloads.Base, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloads.MatmulConfig(4)
	spec := Spec{
		Program:   prog,
		Config:    &cfg,
		MaxCycles: workloads.MaxMatmulCycles(4),
		Trace:     TraceSpec{Digest: true},
		Profile:   true,
	}
	base, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, want := runToEnd(t, base)

	sess, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunSliced(0, func(uint64) error { return nil }); err == nil {
		t.Error("RunSliced must reject a zero slice")
	}
	checks := 0
	res, err := sess.RunSliced(500, func(uint64) error { checks++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if checks < 2 {
		t.Errorf("check ran %d times, want at least one slice boundary", checks)
	}
	st := res.Stats
	st.FastForwarded = 0
	got := outcome{
		halt:   res.Halt,
		stats:  st,
		mem:    res.Mem,
		digest: sess.Recorder().Digest(),
		events: sess.Recorder().Count(),
		perf:   sess.PerfSnapshot(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sliced run diverged:\n got %+v\nwant %+v", got, want)
	}

	// A check error stops mid-run; checkpoint + resume finishes the run
	// with the uninterrupted digest.
	stop := errors.New("preempt")
	half := want.stats.Cycles / 2
	sess2, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err = sess2.RunSliced(500, func(c uint64) error {
		if c >= half {
			return stop
		}
		return nil
	})
	if res != nil || !errors.Is(err, stop) {
		t.Fatalf("RunSliced = (%v, %v), want the check error", res, err)
	}
	cp, err := sess2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(cp, ResumeSpec{MaxCycles: workloads.MaxMatmulCycles(4)})
	if err != nil {
		t.Fatal(err)
	}
	_, got = runToEnd(t, resumed)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("preempted+resumed run diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestPoolReuse asserts warm-machine reuse is invisible: a pooled,
// reset machine reproduces a fresh machine's digest, and the pool
// actually hands the same session back.
func TestPoolReuse(t *testing.T) {
	prog, err := workloads.BuildMatmul(workloads.Base, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloads.MatmulConfig(4)
	spec := Spec{
		Program:   prog,
		Config:    &cfg,
		MaxCycles: workloads.MaxMatmulCycles(4),
		Trace:     TraceSpec{Digest: true},
	}
	var p Pool
	first, err := p.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, want := runToEnd(t, first)
	p.Put(first)

	second, err := p.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Error("pool built a fresh machine instead of reusing the warm one")
	}
	_, got := runToEnd(t, second)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("warm run diverged:\n got %+v\nwant %+v", got, want)
	}

	// A different configuration must never receive the pooled machine.
	other := spec
	other.Profile = true
	p.Put(second)
	third, err := p.Get(other)
	if err != nil {
		t.Fatal(err)
	}
	if third == second {
		t.Error("pool reused a machine across different observer settings")
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := New(Spec{}); err == nil {
		t.Error("New must require a program")
	}
	prog, err := workloads.BuildMatmul(workloads.Base, 4)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := New(Spec{Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.MaxCycles(); got != defaultMaxCycles {
		t.Errorf("default budget = %d, want %d", got, defaultMaxCycles)
	}
	if _, err := sess.RunSliced(0, func(uint64) error { return nil }); err == nil {
		t.Error("RunSliced must reject a zero slice")
	}
}

// TestSpecGeometryValidation: sim.New is the common funnel for machine
// geometry, so it rejects core counts outside [1, lbp.MaxCores] and
// degenerate router degrees before any machine is built. Both the Cores
// shorthand and an explicit Config go through the same check.
func TestSpecGeometryValidation(t *testing.T) {
	prog, err := workloads.BuildMatmul(workloads.Base, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{lbp.MaxCores + 1, 4096} {
		if _, err := New(Spec{Program: prog, Cores: cores}); err == nil {
			t.Errorf("New accepted %d cores, want geometry error", cores)
		}
	}
	cfg := lbp.DefaultConfig(4)
	cfg.Cores = 0
	if _, err := New(Spec{Program: prog, Config: &cfg}); err == nil {
		t.Error("New accepted a Config with 0 cores")
	}
	bad := lbp.DefaultConfig(4)
	bad.Mem.RouterDegree = 1
	if _, err := New(Spec{Program: prog, Config: &bad}); err == nil {
		t.Error("New accepted router degree 1")
	}
	// The largest supported geometry still builds.
	if _, err := New(Spec{Program: prog, Cores: lbp.MaxCores}); err != nil {
		t.Errorf("New rejected %d cores: %v", lbp.MaxCores, err)
	}
}
