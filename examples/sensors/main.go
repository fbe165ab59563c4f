// The non-interruptible I/O example of Section 6 (Figures 16-17): four
// sensors answer in arbitrary order, four harts poll them in a parallel
// sections team, and the fused value drives an actuator. LBP takes no
// interrupts; the static position of the reads fixes the semantics, so
// the fused output is deterministic even though the arrival times are
// not.
//
//	go run ./examples/sensors
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
	prog, err := cc.Build(workloads.SensorFusionSource(3), cc.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	// three rounds of sensor inputs; note round 2 arrives in reverse order
	devices, act := workloads.SensorRig(prog, func(i int) []lbp.SensorEvent {
		return []lbp.SensorEvent{
			{Cycle: 1000 + uint64(211*i), Value: uint32(10 + i)},
			{Cycle: 20000 + uint64(211*(3-i)), Value: uint32(100 * (i + 1))},
			{Cycle: 40000, Value: uint32(7)},
		}
	})
	sess, err := sim.New(sim.Spec{
		Program:   prog,
		Cores:     1,
		Devices:   devices,
		MaxCycles: 10_000_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run finished in %d cycles (%d instructions)\n",
		res.Stats.Cycles, res.Stats.Retired)
	for i, w := range act.Writes {
		fmt.Printf("round %d: actuator <- %d at cycle %d\n", i, w.Value, w.Cycle)
	}
}
