// Package detomp implements the Deterministic OpenMP runtime of the paper:
// the LBP_parallel_start team launcher (Figure 2), the hardware fork
// protocol (Figure 8) and the ending/join conventions (Figures 6-7),
// emitted as RV32 X_PAR assembly.
//
// Unlike the classic OpenMP runtime, no operating system is involved:
// teams of harts are created with p_fc/p_fn, arguments travel as
// continuation values (p_swcv/p_lwcv), the team is ordered, and the
// barrier at the end of a parallel section is the in-order commit of the
// p_ret instructions plus the ending-hart signal chain.
//
// # Register conventions
//
//   - t0 is reserved in all Deterministic OpenMP code: it carries the hart
//     identity word (home = join hart, link = successor team member).
//   - A thread function is entered with a1 = shared data pointer,
//     a2 = member index (the parallel-for iteration), a3 = team size and
//     a4 = the team identity word whose home field is the creator hart
//     (for p_swre reductions). It must return with p_ret, with ra and t0
//     holding their entry values.
//   - LBP_parallel_start is entered with a0 = thread function, a1 = data,
//     a3 = team size (>= 1), and with t0 = the caller's p_set identity.
//     It is frameless on the creator hart; the creator becomes team
//     member 0. Control returns to the caller's return address when the
//     last team member joins. All caller-saved registers are clobbered;
//     the caller must restore ra and t0 from its own frame afterwards.
package detomp

import (
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Runtime returns the assembly of the Deterministic OpenMP runtime,
// to be appended once to any program using parallel constructs. The
// emitted constants follow isa.HartsPerCore.
func Runtime() string {
	return runtimeFor(isa.HartsPerCore)
}

// runtimeFor instantiates the runtime for a machine with hpc harts per
// core. The fork-policy branch masks the hart-in-core field of the p_set
// identity with hpc-1, which is only a field extraction when hpc is a
// power of two (as the identity-word layout requires).
func runtimeFor(hpc int) string {
	if hpc <= 0 || hpc&(hpc-1) != 0 {
		panic(fmt.Sprintf("detomp: harts per core must be a power of two, got %d", hpc))
	}
	return fmt.Sprintf(runtimeAsm, hpc-1, hpc-1)
}

// Statements returns Runtime as the assembler's statements, parsed once
// per process, for a code generator to append to its own list; it
// renders as Runtime's text, comments and all. Append copies: nobody
// assembles the shared list, layout writes into what it walks.
func Statements() *asm.List { return statements() }

var statements = sync.OnceValue(func() *asm.List {
	l, err := asm.Parse(Runtime())
	if err != nil {
		panic("detomp: " + err.Error())
	}
	return l
})

// RuntimeSymbols lists every label Runtime defines: a program linked
// with it can define none of them, so the compiler refuses a function or
// a global of one of these names.
func RuntimeSymbols() []string {
	return []string{"LBP_parallel_start", "Lps_loop", "Lps_fc", "Lps_send", "Lps_last"}
}

// The team launcher. See the package comment for the ABI. The fork
// target selection reproduces the paper's placement policy: fill the
// harts of the current core, then expand to the next core (Figure 3).
// The %d verbs are the hart-in-core mask and its compare bound
// (HartsPerCore-1), filled in by runtimeFor — the mask used to be
// hardcoded to 3 and would silently misplace teams on any machine with
// a different hart count.
const runtimeAsm = `
# ---- Deterministic OpenMP runtime ------------------------------------
# LBP_parallel_start(a0=f, a1=data, a3=nt), t0 = caller identity (p_set).
# Creates an ordered team of nt harts running f(a1, index). Member t runs
# on the hart t positions after the creator along the core line. The
# creator is member 0; the join returns here when the team has ended.
	.text
LBP_parallel_start:
	li a2, 0                 # a2 = member index
Lps_loop:
	addi a5, a3, -1
	bge a2, a5, Lps_last     # last member: no fork
	p_set a5, zero           # a5 = own identity; extract hart-in-core
	srli a5, a5, 16
	andi a5, a5, %d
	li a6, %d
	blt a5, a6, Lps_fc
	p_fn t6                  # last hart of the core: fork on next core
	j Lps_send
Lps_fc:
	p_fc t6                  # fork on the current core
Lps_send:
	p_swcv t6, ra, 0         # transmit the continuation state
	p_swcv t6, t0, 4
	p_swcv t6, a0, 8
	p_swcv t6, a1, 12
	p_swcv t6, a2, 16
	p_swcv t6, a3, 20
	p_merge t0, t0, t6       # link the new member into the identity
	p_syncm                  # wait for the continuation values to land
	mv a4, t0                # a4 = team identity (home = creator)
	p_jalr ra, t0, a0        # run f locally; continuation on the new hart
	p_lwcv ra, 0             # ---- runs on the forked hart ----
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
	mv a4, t0                # a4 = team identity (home = creator)
	p_set t0, t0             # local-return identity for the plain call
	jalr ra, a0              # run f(a1, nt-1) as a normal call
	lw ra, 0(sp)
	lw t0, 4(sp)
	addi sp, sp, 8
	p_ret                    # sends the join address to the creator
# ---- end of runtime ---------------------------------------------------
`
