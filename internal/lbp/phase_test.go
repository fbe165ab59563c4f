package lbp

import (
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

// TestDeferredCycleReplay pins the one cycle shape on which phase B has
// work: everything after a p_fn replays from the per-core pending
// streams in core order. The fork allocates core 1's third hart and
// patches its placeholder event, core 1's store still reaches memory
// (submission order is FIFO, a fault does not cut the replay short),
// and of the two faults the lower core's wins. The expected values
// were recorded on the two-mode stepper this loop replaced.
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
