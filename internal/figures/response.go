package figures

import (
	"fmt"
	"strings"

	"repro/internal/cc"
	"repro/internal/lbp"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// E10: input-to-output response time. The paper's motivation for
// non-interruptible I/O (Section 6) is timing safety: "once the data is
// available to the input controller, within a few cycles it is received
// by the requesting hart. The response time is very short (a few cycles)
// and easy to bound" — unlike interrupt-driven I/O whose response time
// is "very hard to bound".
//
// The experiment runs the Figure 16 sensor-fusion loop with the last
// sensor arriving at a sweep of phases and measures the delay from that
// arrival to the actuator write. On LBP the delay varies only with the
// phase of the polling loop, so its spread is bounded by a handful of
// cycles.

// ResponseReport summarizes the sweep.
type ResponseReport struct {
	Samples  []uint64 // arrival->actuation delay per phase
	Min, Max uint64
}

// Jitter returns max-min: the paper's repeatable-timing figure of merit.
func (r *ResponseReport) Jitter() uint64 { return r.Max - r.Min }

// RunResponseSweep measures the response delay for `phases` consecutive
// arrival offsets of the last sensor. phases must be positive: a sweep
// over zero phases has no samples, and the Min fold below starts at
// ^uint64(0), so letting it through would report Min=2^64-1, Max=0 and a
// wrapped-around Jitter of ~1.8e19 cycles.
func (r Runner) RunResponseSweep(phases int) (*ResponseReport, error) {
	if phases <= 0 {
		return nil, fmt.Errorf("figures: response sweep needs at least one phase, got %d", phases)
	}
	prog, err := cc.Build(workloads.SensorFusionSource(1), cc.DefaultOptions())
	if err != nil {
		return nil, err
	}
	// Each phase is an independent machine (own devices, own run), so the
	// sweep fans out across the worker pool; the min/max fold happens
	// after all phases, in phase order.
	samples, err := runner.Map(r.Workers, phases, func(p int) (uint64, error) {
		// three sensors answer early; the last one arrives late, at a
		// phase-swept cycle, so the fusion waits only on it
		last := uint64(3000 + p)
		devices, act := workloads.SensorRig(prog, func(i int) []lbp.SensorEvent {
			cyc := uint64(500 + 13*i)
			if i == 3 {
				cyc = last
			}
			return []lbp.SensorEvent{{Cycle: cyc, Value: uint32(4 * (i + 1))}}
		})
		_, err := r.run(point{
			label: fmt.Sprintf("response/%d", p),
			spec:  sim.Spec{Program: prog, Cores: 1, Devices: devices, MaxCycles: 50_000_000},
			check: func(*lbp.Machine, *lbp.Result) error {
				if len(act.Writes) != 1 {
					return fmt.Errorf("%d actuator writes", len(act.Writes))
				}
				return nil
			},
		})
		if err != nil {
			return 0, err
		}
		return act.Writes[0].Cycle - last, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &ResponseReport{Min: ^uint64(0), Samples: samples}
	for _, d := range samples {
		if d < rep.Min {
			rep.Min = d
		}
		if d > rep.Max {
			rep.Max = d
		}
	}
	return rep, nil
}

// FormatResponse renders E10.
func FormatResponse(r *ResponseReport) string {
	var b strings.Builder
	b.WriteString("E10 — input-to-actuation response time over arrival phases\n")
	fmt.Fprintf(&b, "phases: %d  min: %d cycles  max: %d cycles  jitter: %d cycles\n",
		len(r.Samples), r.Min, r.Max, r.Jitter())
	b.WriteString("(no interrupts: the delay is the polling-loop phase plus the fixed fusion path)\n")
	return b.String()
}
