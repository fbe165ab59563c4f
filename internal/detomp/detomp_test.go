package detomp

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/lbp"
)

// buildMain wraps a thread function and a team size into a complete
// program using the detomp runtime.
func buildMain(nt int, thread string, data string) string {
	return fmt.Sprintf(`
main:
	li t0, -1
	addi sp, sp, -8
	sw ra, 0(sp)
	sw t0, 4(sp)
	p_set t0, t0
	la a0, thread
	la a1, shared
	li a3, %d
	jal LBP_parallel_start
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret

thread:
%s
%s
	.data
shared:
%s
`, nt, thread, Runtime(), data)
}

func run(t *testing.T, cores int, src string) (*lbp.Machine, *lbp.Result) {
	t.Helper()
	p, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := lbp.New(lbp.DefaultConfig(cores))
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

func TestRuntimeTeamWritesResults(t *testing.T) {
	// thread: shared[index] = index * index
	src := buildMain(16, `
	slli a5, a2, 2
	add a5, a1, a5
	mul a6, a2, a2
	sw a6, 0(a5)
	p_ret
`, "\t.fill 16, 0")
	m, res := run(t, 4, src)
	for i := 0; i < 16; i++ {
		if v, _ := m.ReadShared(0x80000000 + uint32(4*i)); v != uint32(i*i) {
			t.Errorf("shared[%d] = %d, want %d", i, v, i*i)
		}
	}
	if res.Stats.Forks != 15 {
		t.Errorf("forks = %d", res.Stats.Forks)
	}
	// canonical placement: every one of the 16 harts ran
	for i := 0; i < 16; i++ {
		if res.Stats.PerHart[i] == 0 {
			t.Errorf("hart %d idle, placement not canonical", i)
		}
	}
}

func TestRuntimeReductionViaBackwardLine(t *testing.T) {
	// Each member sends its index+1 to the creator (home field of a4);
	// the creator accumulates after the join: sum 1..8 = 36.
	src := buildMain(8, `
	addi a5, a2, 1
	p_swre a4, a5, 0
	p_ret
`, "\t.word 0")
	// main collects: patch main to read 8 values after the join.
	src = strings.Replace(src, `	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret
`, `	li a6, 0
	li a7, 8
collect:
	p_lwre a5, 0
	add a6, a6, a5
	addi a7, a7, -1
	bnez a7, collect
	la a1, shared
	sw a6, 0(a1)
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret
`, 1)
	m, _ := run(t, 2, src)
	if v, _ := m.ReadShared(0x80000000); v != 36 {
		t.Errorf("reduction = %d, want 36", v)
	}
}

func TestRuntimeNestedCalls(t *testing.T) {
	// The thread function calls a helper: ra/t0 must be preserved around
	// the call for the p_ret protocol to work.
	src := buildMain(4, `
	addi sp, sp, -8
	sw ra, 0(sp)
	sw t0, 4(sp)
	mv a0, a2
	jal square
	slli a5, a2, 2
	add a5, a1, a5
	sw a0, 0(a5)
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret

square:
	mul a0, a0, a0
	ret
`, "\t.fill 4, 0")
	m, _ := run(t, 1, src)
	for i := 0; i < 4; i++ {
		if v, _ := m.ReadShared(0x80000000 + uint32(4*i)); v != uint32(i*i) {
			t.Errorf("shared[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRuntimeSingleMember(t *testing.T) {
	src := buildMain(1, `
	li a5, 7
	sw a5, 0(a1)
	p_ret
`, "\t.word 0")
	m, res := run(t, 1, src)
	if v, _ := m.ReadShared(0x80000000); v != 7 {
		t.Errorf("shared[0] = %d", v)
	}
	if res.Stats.Forks != 0 {
		t.Errorf("forks = %d, want 0", res.Stats.Forks)
	}
}

func TestRuntimeBackToBackTeams(t *testing.T) {
	// Two successive teams (the Figure 4 pattern) separated by the
	// hardware barrier: get must observe set.
	src := `
main:
	li t0, -1
	addi sp, sp, -8
	sw ra, 0(sp)
	sw t0, 4(sp)
	p_set t0, t0
	la a0, set
	la a1, shared
	li a3, 8
	jal LBP_parallel_start
	li t0, -1
	p_set t0, t0
	la a0, get
	la a1, shared
	li a3, 8
	jal LBP_parallel_start
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret

set:
	slli a5, a2, 2
	add a5, a1, a5
	addi a6, a2, 10
	sw a6, 0(a5)
	p_ret

get:
	slli a5, a2, 2
	add a6, a1, a5
	lw a7, 0(a6)
	addi a6, a6, 32     # out = shared + 8 words
	slli a7, a7, 1
	sw a7, 0(a6)
	p_ret
` + Runtime() + `
	.data
shared:
	.fill 16, 0
`
	m, res := run(t, 2, src)
	for i := 0; i < 8; i++ {
		if v, _ := m.ReadShared(0x80000000 + 32 + uint32(4*i)); v != uint32(2*(10+i)) {
			t.Errorf("out[%d] = %d, want %d", i, v, 2*(10+i))
		}
	}
	if res.Stats.Joins != 2 {
		t.Errorf("joins = %d, want 2", res.Stats.Joins)
	}
}

// TestRuntimeSymbols: the list names exactly the labels the assembled
// runtime defines — a label added to the runtime and not to the list
// would be one a compiled program could silently redefine.
func TestRuntimeSymbols(t *testing.T) {
	p, err := asm.Assemble(Runtime(), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := RuntimeSymbols()
	sort.Strings(want)
	if got := p.SymbolsSorted(); !slices.Equal(got, want) {
		t.Errorf("RuntimeSymbols lists %q, the runtime defines %q", want, got)
	}
}

// TestStatements: the parsed runtime renders as the runtime's text and,
// appended to a program's list, assembles to what the text assembles to.
func TestStatements(t *testing.T) {
	if got := Statements().String(); got != Runtime() {
		t.Errorf("Statements renders as:\n%s", got)
	}
	for range 2 { // the second round would see what the first wrote into a shared statement
		var l asm.List
		l.Append(Statements())
		got, err := l.Assemble(asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := asm.Assemble(Runtime(), asm.Options{})
		if !slices.Equal(got.Text, want.Text) {
			t.Errorf("appended runtime assembles to %d words, its text to %d", len(got.Text), len(want.Text))
		}
	}
}

// Regression test: the fork-policy mask used to be hardcoded to
// `andi a5, a5, 3` / `li a6, 3`, silently baking HartsPerCore=4 into the
// runtime. The constants must instead derive from the hart count, and a
// non-power-of-two count (no longer a bit-field extraction) must be
// rejected loudly.
func TestRuntimeDerivesHartMask(t *testing.T) {
	r8 := runtimeFor(8)
	if !strings.Contains(r8, "andi a5, a5, 7") || !strings.Contains(r8, "li a6, 7") {
		t.Errorf("runtimeFor(8) must mask with 7:\n%s", r8)
	}
	if strings.Contains(r8, "andi a5, a5, 3") || strings.Contains(r8, "li a6, 3") {
		t.Error("runtimeFor(8) still contains the hardcoded 4-hart mask")
	}
	if r := Runtime(); !strings.Contains(r, fmt.Sprintf("andi a5, a5, %d", isa.HartsPerCore-1)) {
		t.Errorf("Runtime() out of sync with isa.HartsPerCore=%d", isa.HartsPerCore)
	}
	if strings.Contains(Runtime(), "%d") {
		t.Errorf("Runtime() leaked an unexpanded %q verb", "%d")
	}
	for _, bad := range []int{0, -4, 3, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("runtimeFor(%d) must panic", bad)
				}
			}()
			runtimeFor(bad)
		}()
	}
}

// A team larger than the machine's hart capacity cannot be placed: the
// fork past the last core faults deterministically.
func TestTeamLargerThanMachineFaults(t *testing.T) {
	src := buildMain(8, `
	p_ret
`, "\t.word 0") // 8 members on a 1-core (4-hart) machine
	p, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lbp.DefaultConfig(1)
	cfg.LivelockWindow = 5000
	m := lbp.New(cfg)
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(5_000_000)
	if err == nil {
		t.Fatal("oversized team must fail")
	}
	if !strings.Contains(err.Error(), "past the last core") &&
		!strings.Contains(err.Error(), "no progress") {
		t.Errorf("err = %v", err)
	}
}

// Nested teams: a thread function launches its own sub-team on the free
// harts after its own core position.
func TestNestedTeams(t *testing.T) {
	src := `
main:
	li t0, -1
	addi sp, sp, -8
	sw ra, 0(sp)
	sw t0, 4(sp)
	p_set t0, t0
	la a0, outer
	la a1, shared
	li a3, 2
	jal LBP_parallel_start
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret

outer:                      # each outer member launches 2 inner members
	addi sp, sp, -12
	sw ra, 0(sp)
	sw t0, 4(sp)
	sw a2, 8(sp)
	li t0, -1
	p_set t0, t0
	la a0, inner
	slli a5, a2, 3          # inner data base = shared + outer*8
	add a1, a1, a5
	li a3, 2
	jal LBP_parallel_start
	lw ra, 0(sp)
	lw t0, 4(sp)
	lw a2, 8(sp)
	addi sp, sp, 12
	p_ret

inner:                      # data[index] = 5 + index
	slli a5, a2, 2
	add a5, a1, a5
	addi a6, a2, 5
	sw a6, 0(a5)
	p_ret
` + Runtime() + `
	.data
shared:
	.fill 4, 0
`
	m, _ := run(t, 2, src)
	for i := 0; i < 4; i++ {
		want := uint32(5 + i%2)
		if v, _ := m.ReadShared(0x80000000 + uint32(4*i)); v != want {
			t.Errorf("shared[%d] = %d, want %d", i, v, want)
		}
	}
}
