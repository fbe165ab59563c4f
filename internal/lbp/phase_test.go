package lbp

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/trace"
)

// deferredCycleProgram lines four effects up on one cycle (21): core 0
// executes a p_fn, which defers the rest of the cycle; core 1 then
// issues a store (hart 0) and fetches from an unmapped pc (hart 1); core
// 2 issues a misaligned load. The nops and the beq are timing padding.
const deferredCycleProgram = `
main:
	p_fn t6
	p_jal ra, t6, m1         # core 1 hart 0 continues at storer
storer:
	p_fn t5
	p_jal ra, t5, sgo        # core 2 hart 0 continues at faulter2
faulter2:
	la a0, buf
	nop
	lw a1, 2(a0)             # core 2: misaligned load, faults at issue
spin2:
	j spin2
sgo:
	la a0, buf
	li a1, 1
	sw a1, 0(a0)             # core 1: the store of the deferred cycle
	sw a1, 4(a0)
	sw a1, 8(a0)
spin1:
	j spin1
m1:
	p_fn t6
	p_jal ra, t6, m2         # core 1 hart 1 continues at faulter1
faulter1:
	beq zero, zero, f1
f1:
	nop
	lui t1, 0x40000
	jr t1                    # core 1: fetch from unmapped pc
m2:
	nop
	nop
	nop
	nop
	nop
	p_fn t6                  # core 0: defers the cycle
spin0:
	j spin0
	.data
buf:	.fill 4, 0
`

// TestDeferredCycleReplay pins the cycle shape on which phase B has
// work: a p_fn whose allocation, and the faults and trace events behind
// it, wait for the cycle boundary. The fork allocates core 1's third
// hart and patches its placeholder event, core 1's store still reaches
// memory (a fault does not cut the cycle short), and of the two faults
// the lower core's wins. The expected values were recorded on the
// two-mode stepper this loop replaced.
func TestDeferredCycleReplay(t *testing.T) {
	p, err := asm.Assemble(deferredCycleProgram, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(3))
	rec := trace.New(8)
	m.SetTrace(rec)
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(1000)
	const wantErr = "lbp: cycle 21 core 1 hart 1: instruction fetch from unmapped pc 0x40000000"
	if err == nil || err.Error() != wantErr {
		t.Errorf("err = %v\nwant %s", err, wantErr)
	}
	if m.Cycle() != 21 {
		t.Errorf("stopped at cycle %d, want 21", m.Cycle())
	}
	if d, n := rec.Digest(), rec.Count(); d != 0x246f51b70915edaf || n != 53 {
		t.Errorf("trace = %#x/%d, want 0x246f51b70915edaf/53", d, n)
	}
	if m.stats.Forks != 4 || m.cores[1].busy != 3 {
		t.Errorf("forks = %d, core 1 busy harts = %d, want 4 and 3", m.stats.Forks, m.cores[1].busy)
	}
	if m.Mem.Stats.SharedRemote != 1 {
		t.Errorf("stores submitted = %d, want 1", m.Mem.Stats.SharedRemote)
	}
	fork := trace.Event{Cycle: 21, Core: 0, Hart: 0, Kind: trace.KindFork, Value: 6}
	found := false
	for _, e := range rec.Last(8) {
		found = found || e == fork
	}
	if !found {
		t.Errorf("no %v among the last events %v", fork, rec.Last(8))
	}
}

// forkRaceProgram makes core 0's second p_fn lose its hart: core 0 forks
// onto core 1, whose first hart p_fc's harts 1-3, the last one on the
// cycle (17) core 0 issues the p_fn. The issue gate read core 1's count
// at the cycle boundary (three busy harts), so the allocation fails in
// phase B.
const forkRaceProgram = `
main:
	p_fn t6
	p_jal ra, t6, m1         # core 1 hart 0 continues below
	p_fc t6                  # hart 1
	p_jal ra, t6, f2
s1:	j s1
f2:	p_fc t6                  # hart 2
	p_jal ra, t6, f3
s2:	j s2
f3:	p_fc t6                  # hart 3, on core 0's p_fn cycle
	p_jal ra, t6, f4
s3:	j s3
f4:	j f4
m1:
	nop
	nop
	nop
	nop
	nop
	p_fn t6                  # core 0: finds core 1 full in phase B
s0:	j s0
`

// forkRaceLaterProgram is forkRaceProgram with a third core in the race
// cycle (21): core 1 first forks onto core 2, whose hart issues %[1]s
// on the cycle core 0's p_fn fails; core 0's last instruction is %[2]s.
const forkRaceLaterProgram = `
main:
	p_fn t6
	p_jal ra, t6, m1         # core 1 hart 0 continues below
	p_fn t6
	p_jal ra, t6, g1         # core 2 hart 0 continues below
	la a0, buf
	nop
	%[1]s
s2:	j s2
g1:	p_fc t6                  # core 1 hart 1
	p_jal ra, t6, f2
s1:	j s1
f2:	p_fc t6                  # hart 2
	p_jal ra, t6, f3
s3:	j s3
f3:	p_fc t6                  # hart 3, on core 0's last cycle
	p_jal ra, t6, f4
s4:	j s4
f4:	j f4
m1:
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	%[2]s
s0:	j s0
	.data
buf:	.fill 4, 0
`

// TestForkAllocationRaced pins the p_fn that finds no free hart in
// phase B: the run faults at the fork, the fork's placeholder trace event
// is dropped (a failed fork emits none), a fault raised later in the same
// cycle by a higher core loses to it, and a later core's p_fn of that
// cycle still allocates and patches its own event. The expected values
// were recorded on the per-core pending streams this phase B replaced.
func TestForkAllocationRaced(t *testing.T) {
	const misaligned = "lw a1, 2(a0)          # misaligned load, faults at issue"
	for _, tc := range []struct {
		name    string
		cores   int
		src     string
		err     string
		digest  uint64
		events  uint64
		forks   uint64
		lastEvt *trace.Event // must be among the last ring events
	}{
		{name: "race", cores: 3, src: forkRaceProgram,
			err:    "lbp: cycle 17 core 0 hart 0: fork allocation raced (pc 0x44)",
			digest: 0xfaf1a2e3f171de56, events: 37, forks: 1},
		{name: "beats a later fault", cores: 3,
			src:    fmt.Sprintf(forkRaceLaterProgram, misaligned, "p_fn t6"),
			err:    "lbp: cycle 21 core 0 hart 0: fork allocation raced (pc 0x68)",
			digest: 0x66f6e7e61fb0b365, events: 55, forks: 2},
		{name: "later fault alone", cores: 3,
			src: fmt.Sprintf(forkRaceLaterProgram, misaligned, "nop"),
			err: "lbp: cycle 21 core 2 hart 0: misaligned load of width 4 at 0x80000002 (pc 0x1c)"},
		{name: "a later fork allocates", cores: 4,
			src:    fmt.Sprintf(forkRaceLaterProgram, "p_fn t5", "p_fn t6"),
			err:    "lbp: cycle 21 core 0 hart 0: fork allocation raced (pc 0x68)",
			digest: 0x37e6662d9b0c836e, events: 56, forks: 3,
			lastEvt: &trace.Event{Cycle: 21, Core: 2, Hart: 0, Kind: trace.KindFork, Value: 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := asm.Assemble(tc.src, asm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			m := New(DefaultConfig(tc.cores))
			rec := trace.New(8)
			m.SetTrace(rec)
			if err := m.LoadProgram(p); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(1000); err == nil || err.Error() != tc.err {
				t.Fatalf("err = %v\nwant %s", err, tc.err)
			}
			if tc.events == 0 {
				return
			}
			if d, n := rec.Digest(), rec.Count(); d != tc.digest || n != tc.events {
				t.Errorf("trace = %#x/%d, want %#x/%d", d, n, tc.digest, tc.events)
			}
			if m.stats.Forks != tc.forks || m.cores[1].busy != HartsPerCore {
				t.Errorf("forks = %d, core 1 busy harts = %d, want %d and %d",
					m.stats.Forks, m.cores[1].busy, tc.forks, HartsPerCore)
			}
			for _, e := range rec.Last(8) {
				if e.Cycle == m.Cycle() && e.Core == 0 && e.Kind == trace.KindFork {
					t.Errorf("the failed fork left its event %v", e)
				}
				if tc.lastEvt != nil && e == *tc.lastEvt {
					tc.lastEvt = nil
				}
			}
			if tc.lastEvt != nil {
				t.Errorf("no %v among the last events %v", *tc.lastEvt, rec.Last(8))
			}
		})
	}
}
