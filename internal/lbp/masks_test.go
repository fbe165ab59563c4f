package lbp

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/trace"
)

// The candidate masks (core.go) are exact as long as every event that
// can make a hart selectable sets its bit. The tests here check that
// contract from three sides: the invariant it amounts to, after every
// cycle of real Advance calls; the selection itself, stage call by stage
// call against the walk over all four harts; and the case the contract
// cannot cover — a condition no event will ever lift.

// maskCorpus is chosen so that every wake site is the only thing that
// lets some program finish: same-core hand-offs and mul/div latencies
// (arith), LoadDone and p_syncm (every team), a ctlSwre delivery (the p_swre →
// p_lwre reduction), hart.start from a start and from a join message
// (every team), the join-to-self in doRet and a p_fn waiting on a full
// next core (full-neighbor), a p_fc waiting on a full own core
// (full-own-core, and team48 on a 12-core machine, whose creator core
// fills up), a p_lwre whose value arrives late (late-swre), and on a
// machine with a two-entry reorder buffer and instruction table the
// slots that only a commit or an issue frees for rename (tiny-rob-loop,
// rob-full).
func maskCorpus(t *testing.T) []XParProgram {
	t.Helper()
	var out []XParProgram
	for _, x := range XParPrograms {
		switch x.Name {
		case "arith", "team48", "swre-reduction", "late-swre", "reuse-teams", "pjal",
			"multichip", "full-neighbor", "full-own-core", "tiny-rob-loop", "rob-full":
			out = append(out, x)
		}
	}
	if len(out) != 11 {
		t.Fatalf("mask corpus has %d programs, want 11", len(out))
	}
	return out
}

func loadTraced(t *testing.T, x XParProgram) *Machine {
	t.Helper()
	p, err := asm.Assemble(x.Src, asm.Options{})
	if err != nil {
		t.Fatalf("%s: %v", x.Name, err)
	}
	m := New(x.Config())
	m.SetTrace(trace.New(0))
	if err := m.LoadProgram(p); err != nil {
		t.Fatalf("%s: %v", x.Name, err)
	}
	return m
}

// stepCovered single-steps m to its end with Advance(1), asserting the
// wake contract before the first cycle and after every one.
func stepCovered(t *testing.T, m *Machine, label string) {
	t.Helper()
	for {
		checkMasksCover(t, m, label)
		res, err := m.Advance(1)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res != nil {
			checkMasksCover(t, m, label)
			return
		}
	}
}

// TestCandidateMasksCoverEligibility single-steps the corpus with
// Advance(1), fast-forward off and on, and after every cycle asserts for
// every hart and stage: reference predicate with its time gate open ⇒
// candidate bit set. Each program also goes through a checkpoint →
// Restore → resume a third of the way in (mid fork wave for the
// teams): restore rebuilds nothing but sets every bit, which must be
// enough.
func TestCandidateMasksCoverEligibility(t *testing.T) {
	for _, x := range maskCorpus(t) {
		for _, ffwd := range []bool{false, true} {
			label := x.Name + map[bool]string{false: "/step", true: "/ffwd"}[ffwd]
			m := loadTraced(t, x)
			m.SetFastForward(ffwd)
			stepCovered(t, m, label)
			// Again, split by a checkpoint. The restored machine must land
			// on the same cycle count and digest as the straight run.
			a := loadTraced(t, x)
			a.SetFastForward(ffwd)
			if _, err := a.Advance(m.cycle / 3); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cp, err := a.Checkpoint()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			b, err := Restore(cp)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			b.SetFastForward(ffwd)
			stepCovered(t, b, label+" restored")
			if b.cycle != m.cycle || b.Trace().Digest() != m.Trace().Digest() {
				t.Errorf("%s: restored run ended at cycle %d digest %#x, straight run at %d / %#x",
					label, b.cycle, b.Trace().Digest(), m.cycle, m.Trace().Digest())
			}
		}
	}
}

// TestStageSelectionMatchesReference drives the corpus stage by stage
// and checks every one of the stage calls against the reference walk:
// same hart or same "none". It is the direct form of what the pins and
// the parent-timing fixture check end to end.
func TestStageSelectionMatchesReference(t *testing.T) {
	for _, x := range maskCorpus(t) {
		straight := loadTraced(t, x)
		if _, err := straight.Run(2_000_000); err != nil {
			t.Fatalf("%s: %v", x.Name, err)
		}
		m := loadTraced(t, x)
		m.rebuildActive(1)
		var v stageVisits
		for !m.exited {
			stepAgainstReference(t, m, &v)
		}
		// The stage-by-stage driver is a copy of Advance's loop body; it
		// has to reproduce the real loop's run.
		if m.err != nil || m.cycle != straight.cycle || m.Trace().Digest() != straight.Trace().Digest() {
			t.Errorf("%s: stage-by-stage run ended at cycle %d digest %#x (%v), Run at %d / %#x",
				x.Name, m.cycle, m.Trace().Digest(), m.err, straight.cycle, straight.Trace().Digest())
		}
	}
}

// TestStageReportsFetchFault drives the two fetch faults stage by stage:
// a fault is the fetch stage's work for the cycle (its busy counter
// moves), so the stage must report acting, or stepCompute would call a
// faulting cycle idle. The corpus above never faults.
func TestStageReportsFetchFault(t *testing.T) {
	for _, c := range []struct {
		src, want string
		zeroWord  int // code word to overwrite with 0, an invalid instruction; -1 for none
	}{
		{"main:\n\tlui t1, 0x40000\n\tjr t1", "instruction fetch from unmapped pc 0x40000000", -1},
		{"main:\n\tnop\n\tnop", "invalid instruction", 1},
	} {
		p, err := asm.Assemble(c.src, asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := New(DefaultConfig(1))
		if err := m.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
		if c.zeroWord >= 0 {
			m.descs[c.zeroWord] = isa.DecodeDesc(0)
		}
		m.rebuildActive(1)
		var v stageVisits
		for !m.exited {
			stepAgainstReference(t, m, &v)
		}
		if m.err == nil || !strings.Contains(m.err.Error(), c.want) {
			t.Errorf("err = %v, want one containing %q", m.err, c.want)
		}
	}
}

// TestLwreNonexistentBufferFaults: a p_lwre naming a result buffer the
// hart does not have can never be satisfied — no p_swre delivers into a
// buffer that is not there, so with candidate masks it is exactly the
// "bit cleared that no event can ever set" case. It used to answer
// "cannot issue yet" forever and die 100 000 cycles later as a suspected
// deadlock; it issues and faults at execute, naming the buffer and pc.
func TestLwreNonexistentBufferFaults(t *testing.T) {
	p, err := asm.Assemble("main:\n\tp_lwre t1, 7\n"+exitTail, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(1)) // 4 result buffers per hart
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(1_000_000)
	const want = "p_lwre from nonexistent result buffer 7 (pc 0x0)"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want one containing %q", err, want)
	}
	if m.cycle > 10 {
		t.Errorf("faulted at cycle %d; the instruction should fault when it issues", m.cycle)
	}
}
