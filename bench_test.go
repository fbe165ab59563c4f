// Package repro_test holds the benchmark harness: one benchmark per
// table/figure of the paper's evaluation (Figures 19, 20, 21) plus the
// companion experiments of DESIGN.md. Each benchmark runs the complete
// experiment per iteration and reports the simulated machine's cycles,
// retired instructions and IPC as custom metrics, so the paper's numbers
// can be regenerated with:
//
//	go test -bench=. -benchmem
//
// Figure 21 simulates a 64-core, 256-hart machine and takes minutes per
// variant; it is skipped under -short.
package repro_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/figures"
	"repro/internal/lbp"
	"repro/internal/phimodel"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// seq runs every experiment on the benchmark's own goroutine, so the
// time per iteration is the time of the simulations.
var seq = figures.Runner{Workers: 1}

// benchVariant runs one matmul variant at h harts, reporting the
// simulated metrics.
func benchVariant(b *testing.B, v workloads.MatmulVariant, h int) {
	for i := 0; i < b.N; i++ {
		row, err := seq.RunMatmul(v, h)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(row.Cycles), "lbp-cycles")
		b.ReportMetric(float64(row.Retired), "lbp-retired")
		b.ReportMetric(row.IPC, "lbp-IPC")
	}
}

// BenchmarkFigure19 regenerates Figure 19: the five versions on a 4-core
// (16-hart) LBP.
func BenchmarkFigure19(b *testing.B) {
	for _, v := range workloads.Variants {
		b.Run(string(v), func(b *testing.B) { benchVariant(b, v, 16) })
	}
}

// BenchmarkFigure20 regenerates Figure 20: the five versions on a 16-core
// (64-hart) LBP.
func BenchmarkFigure20(b *testing.B) {
	if testing.Short() {
		b.Skip("short mode")
	}
	for _, v := range workloads.Variants {
		b.Run(string(v), func(b *testing.B) { benchVariant(b, v, 64) })
	}
}

// BenchmarkFigure21 regenerates Figure 21: the five versions on a 64-core
// (256-hart) LBP, plus the calibrated Xeon-Phi2 model for the tiled
// version.
func BenchmarkFigure21(b *testing.B) {
	if testing.Short() {
		b.Skip("short mode: the 64-core runs take minutes")
	}
	for _, v := range workloads.Variants {
		b.Run(string(v), func(b *testing.B) { benchVariant(b, v, 256) })
	}
	b.Run("xeon-phi2-model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := phimodel.Default().TiledMatmul(256)
			b.ReportMetric(float64(r.Cycles), "phi-cycles")
			b.ReportMetric(float64(r.Instructions), "phi-retired")
			b.ReportMetric(r.IPC, "phi-IPC")
		}
	})
}

// BenchmarkDeterminism measures E4: three traced runs compared by digest.
func BenchmarkDeterminism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := seq.RunDeterminism(workloads.Base, 16, 3)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.AllEqual {
			b.Fatal("runs diverged")
		}
	}
}

// BenchmarkHartAblation measures E5: core IPC with 1..4 active harts.
func BenchmarkHartAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := seq.RunHartAblation(5000)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.IPC, "IPC-"+r.Label+"hart")
		}
	}
}

// BenchmarkLocality measures E7: the placed two-phase set/get program.
func BenchmarkLocality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := seq.RunLocality([]int{16}, 128)
		if err != nil {
			b.Fatal(err) // a routed access fails the row's check
		}
		b.ReportMetric(float64(rows[0].Cycles), "lbp-cycles")
	}
}

// BenchmarkAblations measures the design-choice sweeps of DESIGN.md:
// router hop latency, bank latency, per-hart memory issue order and
// divider latency, all on the 16-hart base/copy versions.
func BenchmarkAblations(b *testing.B) {
	b.Run("hop-latency", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts, err := seq.RunHopLatAblation(workloads.Base, 16, []int{1, 2, 4})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pts {
				b.ReportMetric(float64(p.Cycles), "cycles-"+p.Label)
			}
		}
	})
	b.Run("bank-latency", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts, err := seq.RunBankLatAblation(workloads.Base, 16, []int{1, 3, 6})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pts {
				b.ReportMetric(float64(p.Cycles), "cycles-"+p.Label)
			}
		}
	})
	b.Run("mem-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts, err := seq.RunMemOrderAblation(workloads.Copy, 16)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pts {
				b.ReportMetric(float64(p.Cycles), "cycles-"+p.Label)
			}
		}
	})
	b.Run("div-latency", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts, err := seq.RunFULatAblation(workloads.Base, 16, []int{17, 68})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pts {
				b.ReportMetric(float64(p.Cycles), "cycles-"+p.Label)
			}
		}
	})
}

// BenchmarkSensorIO measures E6: the Figure 16 deterministic I/O run.
func BenchmarkSensorIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, err := cc.Build(workloads.SensorFusionSource(1), cc.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		devices, _ := workloads.SensorRig(prog, func(s int) []lbp.SensorEvent {
			return []lbp.SensorEvent{{Cycle: 500 + uint64(97*s), Value: uint32(s + 1)}}
		})
		sess, err := sim.New(sim.Spec{
			Program:   prog,
			Cores:     1,
			Devices:   devices,
			MaxCycles: 10_000_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Cycles), "lbp-cycles")
	}
}
