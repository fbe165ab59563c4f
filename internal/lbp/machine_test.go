package lbp

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/trace"
)

// buildAndRun assembles src, runs it on a machine with n cores and
// returns the machine and result.
func buildAndRun(t *testing.T, n int, src string, maxCycles uint64) (*Machine, *Result) {
	t.Helper()
	p, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(DefaultConfig(n))
	if err := m.LoadProgram(p); err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := m.Run(maxCycles)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, res
}

// The bare-metal exit protocol: ra=0, t0=-1, p_ret.
const exitSeq = `
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret
`

const prologue = `
	li t0, -1
	addi sp, sp, -8
	sw ra, 0(sp)
	sw t0, 4(sp)
`

func TestExitProtocol(t *testing.T) {
	_, res := buildAndRun(t, 1, `
main:
	li t0, -1
	li ra, 0
	p_ret
`, 1000)
	if res.Halt != "exit" {
		t.Errorf("halt = %q", res.Halt)
	}
	if res.Stats.Retired != 3 {
		t.Errorf("retired = %d, want 3", res.Stats.Retired)
	}
}

// arithProgram stores mul/div/rem/sub/srai results: every functional-unit
// latency class on one hart.
const arithProgram = `
main:
` + prologue + `
	la a0, out
	li a1, 6
	li a2, 7
	mul a3, a1, a2
	sw a3, 0(a0)
	li a4, 100
	li a5, 8
	div a6, a4, a5
	sw a6, 4(a0)
	rem a7, a4, a5
	sw a7, 8(a0)
	sub t1, a1, a2
	sw t1, 12(a0)
	srai t2, t1, 31
	sw t2, 16(a0)
` + exitSeq + `
	.data
out:	.space 20
`

func TestStoreAndArithmetic(t *testing.T) {
	m, _ := buildAndRun(t, 1, arithProgram, 10000)
	want := []uint32{42, 12, 4, 0xFFFFFFFF, 0xFFFFFFFF}
	got, _ := m.ReadSharedSlice(0x80000000, 5)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out[%d] = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestLoopSum(t *testing.T) {
	m, res := buildAndRun(t, 1, `
main:
`+prologue+`
	li a0, 0
	li a1, 1
	li a2, 100
loop:
	add a0, a0, a1
	addi a1, a1, 1
	ble a1, a2, loop
	la a3, out
	sw a0, 0(a3)
`+exitSeq+`
	.data
out:	.word 0
`, 100000)
	if v, _ := m.ReadShared(0x80000000); v != 5050 {
		t.Errorf("sum = %d, want 5050", v)
	}
	if res.Stats.Retired < 300 {
		t.Errorf("retired = %d, loop must have run", res.Stats.Retired)
	}
}

func TestFunctionCall(t *testing.T) {
	m, _ := buildAndRun(t, 1, `
main:
`+prologue+`
	li a0, 20
	jal double
	la a1, out
	sw a0, 0(a1)
`+exitSeq+`
double:
	slli a0, a0, 1
	ret
	.data
out:	.word 0
`, 10000)
	if v, _ := m.ReadShared(0x80000000); v != 40 {
		t.Errorf("double(20) = %d", v)
	}
}

func TestLocalStackLoadStore(t *testing.T) {
	m, _ := buildAndRun(t, 1, `
main:
`+prologue+`
	addi sp, sp, -16
	li a0, 11
	li a1, 22
	sw a0, 0(sp)
	sw a1, 4(sp)
	lw a2, 0(sp)
	lw a3, 4(sp)
	add a4, a2, a3
	la a5, out
	sw a4, 0(a5)
	addi sp, sp, 16
`+exitSeq+`
	.data
out:	.word 0
`, 10000)
	if v, _ := m.ReadShared(0x80000000); v != 33 {
		t.Errorf("stack round trip sum = %d", v)
	}
}

// teamProgram is the Deterministic OpenMP fork protocol of Figures 6-8,
// written by hand: a team of `nt` harts each stores 100+index into
// result[index]; the last member joins back to the team creator.
const teamProgram = `
	.equ NT, %d
main:
	li t0, -1
	addi sp, sp, -8
	sw ra, 0(sp)
	sw t0, 4(sp)
	p_set t0, t0
	la a0, thread
	la a1, result
	li a3, NT
	jal LBP_parallel_start
rp:
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret                    # ra=0, t0=-1 -> exit

LBP_parallel_start:          # a0=f, a1=data, a3=nt; frameless on the creator
	li a2, 0
Lps_loop:
	addi a4, a3, -1
	bge a2, a4, Lps_last
	andi a5, a2, 3
	li a6, 3
	blt a5, a6, Lfc
	p_fn t6
	j Lsend
Lfc:
	p_fc t6
Lsend:
	p_swcv t6, ra, 0
	p_swcv t6, t0, 4
	p_swcv t6, a0, 8
	p_swcv t6, a1, 12
	p_swcv t6, a2, 16
	p_swcv t6, a3, 20
	p_merge t0, t0, t6
	p_syncm
	p_jalr ra, t0, a0        # run f locally; continuation on the new hart
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
rp2:
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret                    # ra=rp -> join back to the creator hart

thread:                      # a1=result base, a2=index
	slli a4, a2, 2
	add a4, a1, a4
	li a5, 100
	add a5, a5, a2
	sw a5, 0(a4)
	p_ret

	.data
result:
	.fill %d, 0
`

func runTeam(t *testing.T, cores, nt int) (*Machine, *Result) {
	t.Helper()
	src := strings.ReplaceAll(teamProgram, "%d", "")
	_ = src
	progSrc := sprintf(teamProgram, nt, nt)
	return buildAndRun(t, cores, progSrc, 2_000_000)
}

func sprintf(format string, args ...any) string {
	out := format
	for _, a := range args {
		i := strings.Index(out, "%d")
		if i < 0 {
			break
		}
		out = out[:i] + itoa(a.(int)) + out[i+2:]
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func checkTeamResult(t *testing.T, m *Machine, nt int) {
	t.Helper()
	got, ok := m.ReadSharedSlice(0x80000000, nt)
	if !ok {
		t.Fatal("cannot read result")
	}
	for i := 0; i < nt; i++ {
		if got[i] != uint32(100+i) {
			t.Errorf("result[%d] = %d, want %d", i, got[i], 100+i)
		}
	}
}

func TestTeamOfOne(t *testing.T) {
	m, res := runTeam(t, 1, 1)
	checkTeamResult(t, m, 1)
	if res.Stats.Forks != 0 {
		t.Errorf("forks = %d, want 0", res.Stats.Forks)
	}
}

func TestTeamOfTwoSameCore(t *testing.T) {
	m, res := runTeam(t, 1, 2)
	checkTeamResult(t, m, 2)
	if res.Stats.Forks != 1 || res.Stats.Starts != 1 || res.Stats.Joins != 1 {
		t.Errorf("forks/starts/joins = %d/%d/%d", res.Stats.Forks, res.Stats.Starts, res.Stats.Joins)
	}
	if res.Stats.Signals == 0 {
		t.Error("the ending-hart signal chain must have fired")
	}
}

func TestTeamOfFourFillsCore(t *testing.T) {
	m, res := runTeam(t, 1, 4)
	checkTeamResult(t, m, 4)
	if res.Stats.Forks != 3 {
		t.Errorf("forks = %d, want 3", res.Stats.Forks)
	}
	// every hart of the core retired instructions
	for i := 0; i < 4; i++ {
		if res.Stats.PerHart[i] == 0 {
			t.Errorf("hart %d retired nothing", i)
		}
	}
}

func TestTeamSpansCores(t *testing.T) {
	m, res := runTeam(t, 4, 16)
	checkTeamResult(t, m, 16)
	if res.Stats.Forks != 15 {
		t.Errorf("forks = %d, want 15", res.Stats.Forks)
	}
	for i := 0; i < 16; i++ {
		if res.Stats.PerHart[i] == 0 {
			t.Errorf("hart %d retired nothing", i)
		}
	}
}

func TestTeamPartialLastCore(t *testing.T) {
	// 6 members on 4 cores: core 0 full, core 1 half.
	m, res := runTeam(t, 4, 6)
	checkTeamResult(t, m, 6)
	if res.Stats.Forks != 5 {
		t.Errorf("forks = %d", res.Stats.Forks)
	}
}

func TestCycleDeterminismTeam(t *testing.T) {
	src := sprintf(teamProgram, 8, 8)
	p, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var digests []uint64
	var cycles []uint64
	for i := 0; i < 3; i++ {
		m := New(DefaultConfig(2))
		rec := trace.New(0)
		m.SetTrace(rec)
		if err := m.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, rec.Digest())
		cycles = append(cycles, res.Stats.Cycles)
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			t.Errorf("run %d digest %#x differs from run 0 digest %#x", i, digests[i], digests[0])
		}
		if cycles[i] != cycles[0] {
			t.Errorf("run %d cycles %d differ from run 0 cycles %d", i, cycles[i], cycles[0])
		}
	}
}

func TestMachineFaults(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
		cores              int
	}{
		{"fetch unmapped", "main:\n\tlui t1, 0x40000\n\tjr t1", "unmapped pc", 1},
		{"load unmapped", "main:\n\tlui a0, 0xF0000\n\tlw a1, 0(a0)", "unmapped address", 1},
		{"misaligned", "main:\n\tla a0, w\n\tlw a1, 2(a0)\n.data\nw: .word 0, 0", "misaligned load", 1},
		{"p_fn last core", "main:\n\tp_fn t6", "past the last core", 1},
		{"swcv far core", "main:\n\tli t6, 8\n\tp_swcv t6, ra, 0", "same or next core", 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := asm.Assemble(c.src, asm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			m := New(DefaultConfig(c.cores))
			if err := m.LoadProgram(p); err != nil {
				t.Fatal(err)
			}
			_, err = m.Run(100000)
			if err == nil || !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("err = %v, want containing %q", err, c.wantSub)
			}
		})
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A hart that p_rets waiting for a join that never comes.
	p, err := asm.Assemble(`
main:
	li ra, 0
	p_set t0, zero
	p_ret          # type 2: wait for join -> nobody joins
`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.LivelockWindow = 2000
	m := New(cfg)
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(1_000_000)
	if err == nil || !strings.Contains(err.Error(), "no progress") {
		t.Errorf("err = %v, want livelock detection", err)
	}
}

// TestStuckReportBounded: a budget-exceeded run describes its non-free
// harts inside the error, which lbp-serve hands back in a 422 body. A
// fork chain that leaves one spinning hart on every core it passes has
// far more than 16 of them live when a 256-core machine is cut off at
// cycle 1000; the report lists the first 16 and counts the rest.
func TestStuckReportBounded(t *testing.T) {
	p, err := asm.Assemble(`
main:
	p_fn t6
	p_jal ra, t6, spin       # the new hart continues below and forks on
	j main
spin:
	j spin
`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(256))
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(1000)
	if err == nil {
		t.Fatal("the chain should outlive a 1000-cycle budget")
	}
	live := 0
	for _, h := range m.harts {
		if h.State != hartFree {
			live++
		}
	}
	lines := strings.Split(err.Error(), "\n")
	if lines[0] != "lbp: exceeded 1000 cycles without exiting" {
		t.Errorf("first line = %q", lines[0])
	}
	for _, l := range lines[1 : len(lines)-1] {
		if !strings.HasPrefix(l, "  core ") {
			t.Errorf("not a hart line: %q", l)
		}
	}
	if want := sprintf("  … and %d more", live-stuckReportHarts); live <= stuckReportHarts ||
		len(lines) != stuckReportHarts+2 || lines[len(lines)-1] != want {
		t.Errorf("%d live harts, %d report lines ending %q, want %d ending %q",
			live, len(lines), lines[len(lines)-1], stuckReportHarts+2, want)
	}
}

func TestEbreakHalts(t *testing.T) {
	_, res := buildAndRun(t, 1, "main:\n\tebreak\n", 1000)
	if res.Halt != "ebreak" {
		t.Errorf("halt = %q", res.Halt)
	}
}

// swreReductionProgram: a 4-member team p_swre-sends partial values to
// the creator's result buffer 0; the creator p_lwre-collects and sums them.
const swreReductionProgram = `
main:
	li t0, -1
	addi sp, sp, -8
	sw ra, 0(sp)
	sw t0, 4(sp)
	p_set t0, t0
	la a0, thread
	la a1, result
	li a3, 4
	jal LBP_parallel_start
rp:
	# collect the four partial values
	p_lwre a4, 0
	p_lwre a5, 0
	p_lwre a6, 0
	p_lwre a7, 0
	add a4, a4, a5
	add a4, a4, a6
	add a4, a4, a7
	la a1, result
	sw a4, 0(a1)
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
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
rp2:
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret

thread:                      # sends (index+1)*10 to hart 0 (the creator), buffer 0
	addi a4, a2, 1
	li a5, 10
	mul a4, a4, a5
	p_swre zero, a4, 0
	p_ret

	.data
result:	.word 0
`

func TestSwreLwreReduction(t *testing.T) {
	// A 4-member team computes partial values; each member p_swre-sends
	// its value to the creator hart's result buffers; the creator sums
	// them after the join.
	m, _ := buildAndRun(t, 1, swreReductionProgram, 2_000_000)
	if v, _ := m.ReadShared(0x80000000); v != 100 {
		t.Errorf("reduction = %d, want 100", v)
	}
}

// reuseTeamsProgram runs two successive 4-member teams on one core.
const reuseTeamsProgram = `
main:
	li t0, -1
	addi sp, sp, -8
	sw ra, 0(sp)
	sw t0, 4(sp)
	p_set t0, t0
	la a0, set_thread
	la a1, vec
	li a3, 4
	jal LBP_parallel_start
rp_a:
	li t0, -1
	p_set t0, t0
	la a0, get_thread
	la a1, vec
	li a3, 4
	jal LBP_parallel_start
rp_b:
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
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
rp2:
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret

set_thread:                  # vec[i] = i+1
	slli a4, a2, 2
	add a4, a1, a4
	addi a5, a2, 1
	sw a5, 0(a4)
	p_ret

get_thread:                  # out[i] = vec[i] * 2
	slli a4, a2, 2
	add a5, a1, a4
	lw a6, 0(a5)
	la a7, out
	add a7, a7, a4
	slli a6, a6, 1
	sw a6, 0(a7)
	p_ret

	.data
vec:	.fill 4, 0
out:	.fill 4, 0
`

func TestHartsReusableAcrossTeams(t *testing.T) {
	// Two successive parallel sections (Figure 4): the second team reuses
	// the harts freed by the first; the hardware barrier orders them.
	m, res := buildAndRun(t, 1, reuseTeamsProgram, 2_000_000)
	got, _ := m.ReadSharedSlice(0x80000000+16, 4)
	for i := 0; i < 4; i++ {
		if got[i] != uint32(2*(i+1)) {
			t.Errorf("out[%d] = %d, want %d", i, got[i], 2*(i+1))
		}
	}
	if res.Stats.Forks != 6 {
		t.Errorf("forks = %d, want 6 (3 per team)", res.Stats.Forks)
	}
	if res.Stats.Joins != 2 {
		t.Errorf("joins = %d, want 2", res.Stats.Joins)
	}
}

// Machine-level counter invariants on a full parallel run.
func TestStatsInvariants(t *testing.T) {
	_, res := runTeam(t, 4, 16)
	st := res.Stats
	if st.Retired == 0 || st.Fetched < st.Retired {
		t.Errorf("fetched %d must cover retired %d", st.Fetched, st.Retired)
	}
	if st.Forks != st.Starts {
		t.Errorf("every fork is started exactly once: forks=%d starts=%d",
			st.Forks, st.Starts)
	}
	var perHart uint64
	for _, r := range st.PerHart {
		perHart += r
	}
	if perHart != st.Retired {
		t.Errorf("per-hart sum %d != retired %d", perHart, st.Retired)
	}
	if st.IPC() <= 0 || st.IPC() > float64(4) {
		t.Errorf("IPC %f out of range for a 4-core machine", st.IPC())
	}
}

// Reusing a Machine for a second Run is rejected: runs are one-shot so
// that reported statistics always describe a single program execution.
func TestMachineSingleUse(t *testing.T) {
	p, err := asm.Assemble("main:\n\tli ra, 0\n\tli t0, -1\n\tp_ret\n", asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(1))
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1000); err == nil {
		t.Error("second Run must be rejected")
	}
}

// The trace recorder sees the events the statistics count.
func TestTraceMatchesStats(t *testing.T) {
	src := sprintf(teamProgram, 8, 8)
	p, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(2))
	rec := trace.New(64)
	m.SetTrace(rec)
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// events = fetches + commits + forks + starts + signals + joins + sends
	want := res.Stats.Fetched + res.Stats.Retired + res.Stats.Forks +
		res.Stats.Starts + res.Stats.Signals + res.Stats.Joins + res.Stats.RemoteSends
	if rec.Count() != want {
		t.Errorf("trace events %d, stats imply %d", rec.Count(), want)
	}
	if len(rec.Last(16)) == 0 {
		t.Error("ring buffer empty")
	}
}

// pjalProgram is the direct-target parallelized call of Figure 5.
const pjalProgram = `
main:
	li t0, -1
	addi sp, sp, -8
	sw ra, 0(sp)
	sw t0, 4(sp)
	p_set t0, t0
	p_fc t6
	li a1, 5
	p_swcv t6, ra, 0
	p_swcv t6, t0, 4
	p_swcv t6, a1, 8
	p_merge t0, t0, t6
	p_syncm
	p_jal ra, t0, worker    # run worker here; continuation on t6's hart
	# ---- continuation, on the forked hart ----
	p_lwcv ra, 0
	p_lwcv t0, 4            # home = main's hart
	p_lwcv a1, 8
	la a2, out
	slli a3, a1, 1          # out[1] = 10
	sw a3, 4(a2)
	la ra, mainresume
	p_ret                   # type 4: send the join address to main's hart

mainresume:                 # main's hart resumes here after the join
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret                   # ra=0, t0=-1 -> exit

worker:                     # out[0] = 7 (runs on main's hart, ra = 0)
	la a2, out
	li a3, 7
	sw a3, 0(a2)
	p_ret                   # type 2: main's hart waits for the join

	.data
out:	.fill 2, 0
`

// p_jal: the direct-target parallelized call (Figure 5) — the callee runs
// locally while the continuation starts on the allocated hart.
func TestPJalParallelCall(t *testing.T) {
	m, res := buildAndRun(t, 1, pjalProgram, 100000)
	if v, _ := m.ReadShared(0x80000000); v != 7 {
		t.Errorf("worker result = %d", v)
	}
	if v, _ := m.ReadShared(0x80000004); v != 10 {
		t.Errorf("continuation result = %d", v)
	}
	if res.Stats.Forks != 1 || res.Stats.Starts != 1 {
		t.Errorf("forks/starts: %d/%d", res.Stats.Forks, res.Stats.Starts)
	}
}
