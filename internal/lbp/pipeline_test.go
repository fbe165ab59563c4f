package lbp

import (
	"strings"
	"testing"

	"repro/internal/asm"
)

// Micro-architectural behavior tests: timing properties the paper's
// design implies, measured on tiny programs.

// runStats assembles and runs src on one core, returning the result.
func runStats(t *testing.T, src string, cfg Config) *Result {
	t.Helper()
	p, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(cfg)
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const exitTail = `
	li ra, 0
	li t0, -1
	p_ret
`

// A single hart cannot exceed 0.5 IPC: every fetch suspends until the
// decode produces the next pc (Section 5.2).
func TestSingleHartFetchSuspension(t *testing.T) {
	src := "main:\n"
	for i := 0; i < 400; i++ {
		src += "\taddi a0, a0, 1\n"
	}
	src += exitTail
	res := runStats(t, src, DefaultConfig(1))
	ipc := res.Stats.IPC()
	if ipc > 0.52 {
		t.Errorf("single-hart IPC %.3f exceeds the fetch-suspension bound", ipc)
	}
	if ipc < 0.40 {
		t.Errorf("single-hart IPC %.3f unexpectedly low for straight-line code", ipc)
	}
}

// Division blocks the hart's result buffer for its full latency: a chain
// of dependent divisions runs at ~1/(DivLat+overhead) IPC.
func TestDivLatencyChain(t *testing.T) {
	src := "main:\n\tli a0, 1000000\n\tli a1, 2\n"
	n := 50
	for i := 0; i < n; i++ {
		src += "\tdiv a0, a0, a1\n"
	}
	src += exitTail
	cfg := DefaultConfig(1)
	res := runStats(t, src, cfg)
	// each div occupies the hart for >= DivLat cycles
	if res.Stats.Cycles < uint64(n*cfg.DivLat) {
		t.Errorf("cycles = %d, want >= %d for %d chained divisions",
			res.Stats.Cycles, n*cfg.DivLat, n)
	}
}

// Independent divisions on different harts overlap: four harts dividing
// in parallel finish in far less than 4x the single-hart time.
func TestDivOverlapAcrossHarts(t *testing.T) {
	mk := func(nt int) string {
		return strings.ReplaceAll(`
main:
	li t0, -1
	addi sp, sp, -8
	sw ra, 0(sp)
	sw t0, 4(sp)
	p_set t0, t0
	la a0, thread
	la a1, shared
	li a3, NT
	jal LBP_parallel_start
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret

thread:
	li a6, 3
	li a7, 40
tloop:
	li a5, 1000000
	div a5, a5, a6
	addi a7, a7, -1
	bnez a7, tloop
	p_ret

LBP_parallel_start:
	li a2, 0
Lps_loop:
	addi a4, a3, -1
	bge a2, a4, Lps_last
	p_fc t6
	p_swcv t6, ra, 0
	p_swcv t6, t0, 4
	p_swcv t6, a0, 8
	p_swcv t6, a1, 12
	p_swcv t6, a2, 16
	p_swcv t6, a3, 20
	p_merge t0, t0, t6
	p_syncm
	p_jalr ra, t0, a0
	p_lwcv ra, 0
	p_lwcv t0, 4
	p_lwcv a0, 8
	p_lwcv a1, 12
	p_lwcv a2, 16
	p_lwcv a3, 20
	addi a2, a2, 1
	j Lps_loop
Lps_last:
	addi sp, sp, -8
	sw ra, 0(sp)
	sw t0, 4(sp)
	p_set t0, t0
	jalr ra, a0
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret

	.data
shared:	.word 0
`, "NT", itoa(nt))
	}
	one := runStats(t, mk(1), DefaultConfig(1))
	four := runStats(t, mk(4), DefaultConfig(1))
	if four.Stats.Cycles > 2*one.Stats.Cycles {
		t.Errorf("4 harts dividing took %d cycles vs %d for 1: latencies not hidden",
			four.Stats.Cycles, one.Stats.Cycles)
	}
}

// The ROB bounds the number of in-flight instructions per hart: with a
// tiny ROB the machine still runs correctly, just slower.
const tinyROBProgram = `
main:
	li a0, 0
	li a1, 100
loop:
	addi a0, a0, 1
	bne a0, a1, loop
	la a2, out
	sw a0, 0(a2)
` + exitTail + `
	.data
out:	.word 0
`

// tinyROBConfig is a one-core machine whose harts hold two instructions
// in flight: rename waits on a full reorder buffer or instruction table
// most of the time.
func tinyROBConfig() Config {
	cfg := DefaultConfig(1)
	cfg.ROBEntries = 2
	cfg.ITEntries = 2
	return cfg
}

func TestTinyROBStillCorrect(t *testing.T) {
	src := tinyROBProgram
	cfg := tinyROBConfig()
	p, _ := asm.Assemble(src, asm.Options{})
	m := New(cfg)
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadShared(0x80000000); v != 100 {
		t.Errorf("out = %d", v)
	}
	big := runStats(t, src, DefaultConfig(1))
	if res.Stats.Cycles < big.Stats.Cycles {
		t.Errorf("tiny ROB (%d cycles) cannot beat the default (%d)",
			res.Stats.Cycles, big.Stats.Cycles)
	}
}

// Store-then-load to the same address within one hart observes program
// order (StrictMemOrder stands in for compiler-inserted p_syncm).
func TestSameAddressStoreLoadOrder(t *testing.T) {
	src := `
main:
	la a0, slot
	li a1, 1
	li a2, 0
loop:
	sw a1, 0(a0)
	lw a3, 0(a0)
	add a2, a2, a3
	addi a1, a1, 1
	li a4, 11
	bne a1, a4, loop
	la a5, out
	sw a2, 0(a5)
` + exitTail + `
	.data
slot:	.word 0
out:	.word 0
`
	res := runStats(t, src, DefaultConfig(1))
	_ = res
	p, _ := asm.Assemble(src, asm.Options{})
	m := New(DefaultConfig(1))
	m.LoadProgram(p)
	m.Run(1_000_000)
	if v, _ := m.ReadShared(0x80000004); v != 55 {
		t.Errorf("sum = %d, want 55 (loads must see their own stores)", v)
	}
}

// p_syncm drains the hart's in-flight memory accesses before fetch
// resumes: a CV write followed by p_syncm is complete when the next
// instruction fetches.
func TestSyncmDrains(t *testing.T) {
	src := `
main:
	p_fc t6
	li a1, 77
	p_swcv t6, a1, 0
	p_syncm
	li ra, 0
	li t0, -1
	p_ret
`
	p, _ := asm.Assemble(src, asm.Options{})
	m := New(DefaultConfig(1))
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	// hart 1's CV area received the value
	spInit := m.cfg.SPInit(1)
	if v, _ := m.Mem.PeekLocal(0, spInit); v != 77 {
		t.Errorf("CV word = %d, want 77", v)
	}
}

// A full instruction-table hart must not wedge the other harts of the
// core: rename selection skips it.
func TestBlockedHartDoesNotStarveCore(t *testing.T) {
	// hart 0 waits forever on p_lwre (empty buffer) while the machine
	// deadlock detector watches; the fault must mention the lwre.
	src := `
main:
	p_lwre a0, 0
	li ra, 0
	li t0, -1
	p_ret
`
	p, _ := asm.Assemble(src, asm.Options{})
	cfg := DefaultConfig(1)
	cfg.LivelockWindow = 3000
	m := New(cfg)
	m.LoadProgram(p)
	_, err := m.Run(1_000_000)
	if err == nil || !strings.Contains(err.Error(), "no progress") {
		t.Errorf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "p_lwre") {
		t.Errorf("diagnostic must show the blocked head: %v", err)
	}
}

// Two machines with different hop latencies produce different cycle
// counts but identical results: the timing model is decoupled from the
// semantics.
func TestTimingIndependentSemantics(t *testing.T) {
	src := `
main:
	la a0, out
	li a1, 123
	sw a1, 0(a0)
` + exitTail + `
	.data
out:	.word 0
`
	p, _ := asm.Assemble(src, asm.Options{})
	fast := DefaultConfig(2)
	slow := DefaultConfig(2)
	slow.Mem.HopLat = 9
	slow.Mem.SharedLat = 11
	mf, ms := New(fast), New(slow)
	mf.LoadProgram(p)
	ms.LoadProgram(p)
	rf, err1 := mf.Run(100000)
	rs, err2 := ms.Run(100000)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	vf, _ := mf.ReadShared(0x80000000)
	vs, _ := ms.ReadShared(0x80000000)
	if vf != 123 || vs != 123 {
		t.Errorf("results differ: %d %d", vf, vs)
	}
	if rs.Stats.Cycles <= rf.Stats.Cycles {
		t.Errorf("slower memory must cost cycles: %d vs %d",
			rs.Stats.Cycles, rf.Stats.Cycles)
	}
}
