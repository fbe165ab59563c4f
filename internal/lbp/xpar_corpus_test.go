package lbp

// The hand-written X_PAR programs of this package's tests as one corpus,
// for the tests that run all of them: the parent-timing fixture
// (parent_timing_test.go, which lives in package lbp_test because it
// imports fuzzgen, and fuzzgen imports this package) and the candidate-
// mask tests (masks_test.go). This file and the files the programs come
// from compile on the commit before the masks too — that is how the
// fixture was written.

// fullOwnCoreProgram is fullNeighborProgram with same-core forks: main
// fills its own core (ender on hart 1, spinners on harts 2 and 3) and its
// fourth p_fc sits ready in the instruction table until ender's type-1
// p_ret frees a hart.
const fullOwnCoreProgram = `
main:
	li t0, -1
	p_set t0, t0
	p_fc t6                  # hart 1
	p_merge t0, t0, t6
	p_jal ra, t6, m1
ender:
	li t1, 40
eloop:
	addi t1, t1, -1
	bne t1, zero, eloop
	lui t0, 0x80010
	addi t0, t0, -1          # valid identity, home 0, no link
	li ra, 0
	p_ret                    # ending type 1: frees hart 1
m1:
	la ra, m2
	p_ret                    # signal to ender; resume at m2 on this hart
m2:
	p_fc t6                  # hart 2
	p_jal ra, t6, m3
spin1:
	j spin1
m3:
	p_fc t6                  # hart 3
	p_jal ra, t6, m4
spin2:
	j spin2
m4:
	p_fc t6                  # the core is full: waits for ender's hart
	li ra, 0
	li t0, -1
	p_ret                    # exit
`

// robFullProgram, on a tinyROBConfig machine, leaves the second store
// fetched but not renamed behind a full reorder buffer — a div in its 17
// cycles of latency and a store that completed at issue — with nothing
// left to issue: the div's commit is the only event that frees a slot.
const robFullProgram = `
main:
	la a3, out
	li a0, 1000
	li a1, 3
	div a2, a0, a1
	sw a0, 0(a3)
	sw a2, 4(a3)
` + exitTail + `
	.data
out:	.fill 2, 0
`

// lateSwreProgram makes a p_lwre wait for its value: the consumer (main's
// hart) issues everything that does not depend on it and goes quiet long
// before the producer's countdown ends, so the arrival of the p_swre
// message is the only event that can restart it.
const lateSwreProgram = `
main:
	p_fc t6
	p_jal ra, t6, consumer   # the new hart continues at producer
producer:
	li t1, 40
ploop:
	addi t1, t1, -1
	bne t1, zero, ploop
	li a4, 123
	p_swre zero, a4, 0       # to hart 0, result buffer 0
pspin:
	j pspin
consumer:
	p_lwre a5, 0
	la a1, out
	sw a5, 0(a1)
` + exitTail + `
	.data
out:	.word 0
`

// XParProgram is one hand-written X_PAR program of this package's tests,
// with the machine its test runs it on: Cores default-configured cores,
// or the one-core tinyROBConfig.
type XParProgram struct {
	Name    string
	Cores   int
	Src     string
	TinyROB bool
}

// Config returns the program's machine configuration.
func (x XParProgram) Config() Config {
	if x.TinyROB {
		return tinyROBConfig()
	}
	return DefaultConfig(x.Cores)
}

// XParPrograms hands the package's X_PAR test programs to the external
// parent-timing test (parent_timing_test.go imports fuzzgen, which
// imports this package, so it cannot live in package lbp). The two that
// end in a fault or a deadlock report are rows too: a fault is as
// deterministic as an exit.
var XParPrograms = []XParProgram{
	{Name: "arith", Cores: 1, Src: arithProgram},
	{Name: "team1", Cores: 1, Src: sprintf(teamProgram, 1, 1)},
	{Name: "team4", Cores: 1, Src: sprintf(teamProgram, 4, 4)},
	{Name: "team6", Cores: 4, Src: sprintf(teamProgram, 6, 6)},
	{Name: "team8", Cores: 2, Src: sprintf(teamProgram, 8, 8)},
	{Name: "team16", Cores: 4, Src: sprintf(teamProgram, 16, 16)},
	{Name: "team48", Cores: 12, Src: sprintf(teamProgram, 48, 48)},
	{Name: "team256", Cores: 64, Src: sprintf(teamProgram, 256, 256)},
	{Name: "swre-reduction", Cores: 1, Src: swreReductionProgram},
	{Name: "late-swre", Cores: 1, Src: lateSwreProgram},
	{Name: "reuse-teams", Cores: 1, Src: reuseTeamsProgram},
	{Name: "pjal", Cores: 1, Src: pjalProgram},
	{Name: "multichip", Cores: 8, Src: multiChipTeam},
	{Name: "full-neighbor", Cores: 2, Src: fullNeighborProgram},
	{Name: "full-own-core", Cores: 1, Src: fullOwnCoreProgram},
	{Name: "tiny-rob-loop", Cores: 1, Src: tinyROBProgram, TinyROB: true},
	{Name: "rob-full", Cores: 1, Src: robFullProgram, TinyROB: true},
	{Name: "deferred-cycle-fault", Cores: 3, Src: deferredCycleProgram},
	{Name: "lwre-empty-deadlock", Cores: 1, Src: "main:\n\tp_lwre a0, 0\n" + exitTail},
}
