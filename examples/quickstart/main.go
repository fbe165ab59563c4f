// Quickstart: compile a Deterministic OpenMP program from source, run it
// on a simulated 4-core LBP and read the results back from shared memory.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cc"
	"repro/internal/sim"
)

// A classic OpenMP-style program: the only Deterministic OpenMP change is
// the header name, exactly as in Figure 1 of the paper. The parallel-for
// pragma creates a team of 16 harts — one per iteration — placed along
// the LBP core line by the hardware fork instructions.
const source = `
#include <det_omp.h>
#define NUM_HART 16

int squares[NUM_HART];

void thread(int t) {
	squares[t] = t * t;
}

void main() {
	int t;
	omp_set_num_threads(NUM_HART);
	#pragma omp parallel for
	for (t = 0; t < NUM_HART; t++) thread(t);
}
`

func main() {
	// compile MiniC -> X_PAR assembly (the detomp runtime is appended),
	// assemble -> program image
	prog, err := cc.Build(source, cc.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	// run on a 4-core (16-hart) LBP
	sess, err := sim.New(sim.Spec{Program: prog, Cores: 4, MaxCycles: 1_000_000})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}
	vals, _ := sess.Machine().ReadSharedSlice(prog.Symbols["squares"], 16)
	fmt.Println("squares:", vals)
	fmt.Printf("cycles: %d, retired: %d, IPC: %.2f, forks: %d, joins: %d\n",
		res.Stats.Cycles, res.Stats.Retired, res.Stats.IPC(),
		res.Stats.Forks, res.Stats.Joins)
	fmt.Println("run it twice: the cycle count is identical — LBP is cycle-deterministic")
}
