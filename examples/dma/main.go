// The DMA pattern of Section 6: one hart acts as an input controller,
// filling every consumer's shared bank with streamed data and releasing
// each consumer through the backward result line (p_swre/p_lwre) —
// no interrupts anywhere.
//
//	go run ./examples/dma
package main

import (
	"fmt"
	"log"

	"repro/internal/cc"
	"repro/internal/lbp"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	const nt = 16
	src := workloads.DMASource(nt)
	opt := cc.DefaultOptions()
	opt.Cores = nt / 4
	opt.BankReserveBytes = 512
	prog, err := cc.Build(src, opt)
	if err != nil {
		log.Fatal(err)
	}
	events := make([]lbp.SensorEvent, nt-1)
	for i := range events {
		events[i] = lbp.SensorEvent{Cycle: 1500 + uint64(150*i), Value: uint32(10 * (i + 1))}
	}
	stream := &lbp.Sensor{
		Name:      "stream",
		ValueAddr: prog.Symbols["inval"],
		FlagAddr:  prog.Symbols["inflag"],
		Events:    events,
	}
	sess, err := sim.New(sim.Spec{
		Program:   prog,
		Cores:     nt / 4,
		Devices:   []lbp.Device{stream},
		MaxCycles: 10_000_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}
	out, _ := sess.Machine().ReadSharedSlice(prog.Symbols["out"], nt-1)
	fmt.Println("consumer results (datum*2 + release token):", out)
	fmt.Printf("cycles: %d, backward-line releases: %d, no interrupts taken (LBP has none)\n",
		res.Stats.Cycles, res.Stats.RemoteSends)
}
