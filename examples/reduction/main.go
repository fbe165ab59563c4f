// A parallel reduction: the OpenMP reduction clause is lowered to the
// backward inter-core line — each team member p_swre-sends its partial
// sum to the creator hart's result buffer, and the creator accumulates
// after the hardware join (Section 4 of the paper: "a team [can] produce
// a reduction value and have its ... member send it to the join hart").
//
//	go run ./examples/reduction
package main

import (
	"fmt"
	"log"

	"repro/internal/cc"
	"repro/internal/sim"
)

const source = `
#include <det_omp.h>
#define NUM_HART 16
#define N 256

int data[N] = {[0 ... 255] = 3};
int total;

void main() {
	int t;
	total = 0;
	#pragma omp parallel for reduction(+:total)
	for (t = 0; t < NUM_HART; t++) {
		int i;
		int *p;
		p = data + t * (N / NUM_HART);
		for (i = 0; i < N / NUM_HART; i++) {
			total += *p;
			p = p + 1;
		}
	}
}
`

func main() {
	prog, err := cc.Build(source, cc.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	sess, err := sim.New(sim.Spec{Program: prog, Cores: 4, MaxCycles: 1_000_000})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}
	total, _ := sess.Machine().ReadShared(prog.Symbols["total"])
	fmt.Printf("sum of 256 threes, reduced over 16 harts: %d (want 768)\n", total)
	fmt.Printf("cycles: %d, backward-line sends: %d\n",
		res.Stats.Cycles, res.Stats.RemoteSends)
}
