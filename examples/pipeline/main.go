// Deterministic MPI (the paper's Section 8 perspective): an ordered
// communicator where senders always precede their receivers. This
// example builds an 8-rank pipeline — rank 0 injects a value, each rank
// transforms and forwards it — and shows the transfer is exactly
// reproducible.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"repro/internal/cc"
	"repro/internal/detmpi"
	"repro/internal/sim"
)

const user = `
int seen[DMPI_NR];

void dmpi_main(int me, int nranks) {
	int v;
	if (me == 0) {
		v = 1;
	} else {
		v = dmpi_recv(me, me - 1);   /* blocks on the sender's mailbox */
	}
	seen[me] = v;
	if (me < nranks - 1) {
		dmpi_send(me, me + 1, v * 2 + 1);
	}
}
`

func main() {
	src, err := detmpi.Program(8, user)
	if err != nil {
		log.Fatal(err)
	}
	opt := cc.DefaultOptions()
	opt.Cores = 2
	prog, err := cc.Build(src, opt)
	if err != nil {
		log.Fatal(err)
	}
	run := func() ([]uint32, uint64, uint64) {
		sess, err := sim.New(sim.Spec{
			Program:   prog,
			Cores:     2,
			MaxCycles: 10_000_000,
			Trace:     sim.TraceSpec{Digest: true},
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			log.Fatal(err)
		}
		vals, _ := sess.Machine().ReadSharedSlice(prog.Symbols["seen"], 8)
		return vals, res.Stats.Cycles, sess.Recorder().Digest()
	}
	v1, c1, d1 := run()
	v2, c2, d2 := run()
	fmt.Println("pipeline values per rank:", v1)
	fmt.Printf("run 1: %d cycles, digest %#x\n", c1, d1)
	fmt.Printf("run 2: %d cycles, digest %#x\n", c2, d2)
	if c1 == c2 && d1 == d2 {
		fmt.Println("identical: message passing on LBP is cycle-deterministic")
	}
	_ = v2
}
