// lbp-bench regenerates the paper's evaluation: Figures 19, 20 and 21
// (the five matrix multiplication versions on 4-, 16- and 64-core LBP
// machines, with the Xeon-Phi-like model on Figure 21) and the companion
// experiments of DESIGN.md: cycle determinism (det), latency hiding vs
// hart count (harts), deterministic I/O (io), two-phase locality
// (locality), the design-parameter sweeps (ablate), the Figure 15
// multi-chip lines (chips), the input-to-actuation sweep (response) and
// the 64/256/1024-core weak-scaling sweep (fig 22, experiment E18).
//
// Independent simulations (matmul variants, sweep points, determinism
// repeats) fan out across -parallel worker goroutines; each simulated
// machine stays single-threaded, so every figure row and trace digest is
// identical for any -parallel value. The matmul and scaling figures
// additionally record a machine-readable BENCH_fig<N>.json in -outdir.
// A record holds simulated quantities only, so regenerating it on any
// host, with any -parallel, reproduces the file byte for byte; how fast
// the simulator ran is bench/'s business (sim_cycles_per_s), not a
// record's.
//
// Usage:
//
//	lbp-bench [-parallel N] [-json] [-outdir DIR] [-profile] [-phases N] [-cpuprofile FILE] [-memprofile FILE] -fig 19|20|21|22|det|harts|io|locality|ablate|chips|response|all
//
// -profile embeds a deterministic performance-counter snapshot (cycle
// attribution by stall cause, retired mix, stage occupancy, per-link-class
// wait cycles, local/remote latency histograms) in every row and
// therefore in the BENCH_fig<N>.json records. Counters never feed back
// into simulated timing, so rows and digests are byte-identical with and
// without -profile, for any -parallel value.
//
// -cpuprofile / -memprofile capture host-side pprof profiles of the
// simulator itself (the whole lbp-bench invocation), for finding the next
// simulator hot spot — unrelated to the simulated-machine -profile.
//
// -phases sets the arrival-phase count of the -fig response sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/figures"
	"repro/internal/lbp"
	"repro/internal/phimodel"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// figNames lists the valid -fig values in run order.
var figNames = []string{"19", "20", "21", "22", "det", "harts", "io", "locality", "ablate", "chips", "response"}

// bench is one lbp-bench invocation: the experiment runner and where
// its results go.
type bench struct {
	figures.Runner
	out    io.Writer // tables, or the records under -json
	json   bool
	outdir string
	phases int
}

func main() {
	fig := flag.String("fig", "all", "which figure/experiment to run: "+strings.Join(figNames, "|")+"|all")
	asJSON := flag.Bool("json", false, "emit the BENCH records on stdout instead of tables")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for independent simulations (0 = all CPUs, 1 = sequential)")
	outdir := flag.String("outdir", ".", "directory receiving the BENCH_fig<N>.json records")
	profile := flag.Bool("profile", false, "embed deterministic perf-counter snapshots in rows and BENCH records")
	phases := flag.Int("phases", 24, "arrival phases for the -fig response sweep (must be positive)")
	cpuProfile := flag.String("cpuprofile", "", "write a host-side CPU pprof profile of the simulator to `file`")
	memProfile := flag.String("memprofile", "", "write a host-side heap pprof profile of the simulator to `file`")
	flag.Parse()
	// Reject a bad sweep size here, before any figure runs: a non-positive
	// phase count cannot produce a response report (RunResponseSweep also
	// guards this; the flag layer turns it into a usage error).
	if *phases <= 0 {
		fmt.Fprintf(os.Stderr, "lbp-bench: -phases %d must be positive\n", *phases)
		os.Exit(2)
	}
	b := &bench{
		Runner: figures.Runner{Workers: *parallel, Profile: *profile},
		out:    os.Stdout,
		json:   *asJSON,
		outdir: *outdir,
		phases: *phases,
	}
	// A profile that fails to flush or close is silently truncated and
	// useless; report the error and make the run exit nonzero. The exit
	// check is registered first so it runs after every profile defer.
	profileErr := false
	defer func() {
		if profileErr {
			os.Exit(1)
		}
	}()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbp-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lbp-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "lbp-bench: -cpuprofile: close: %v\n", err)
				profileErr = true
			}
		}()
		defer pprof.StopCPUProfile() // LIFO: stop (and flush) before closing f
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lbp-bench: -memprofile: %v\n", err)
				profileErr = true
				return
			}
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "lbp-bench: -memprofile: %v\n", err)
				profileErr = true
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "lbp-bench: -memprofile: close: %v\n", err)
				profileErr = true
			}
		}()
	}
	matched := false
	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		matched = true
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "lbp-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		// In JSON mode stdout carries only the records (so two runs diff
		// byte-identically); progress goes to stderr.
		progress := os.Stdout
		if b.json {
			progress = os.Stderr
		}
		fmt.Fprintf(progress, "[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	run("19", func() error { return b.matmulFigure(16) })
	run("20", func() error { return b.matmulFigure(64) })
	run("21", func() error { return b.matmulFigure(256) })
	run("22", b.scaleFigure)
	run("det", b.determinism)
	run("harts", b.ablation)
	run("io", b.ioExperiment)
	run("locality", b.locality)
	run("ablate", b.designAblations)
	run("chips", b.chips)
	run("response", b.response)
	if !matched {
		fmt.Fprintf(os.Stderr, "lbp-bench: unknown -fig %q (valid: %s, all)\n",
			*fig, strings.Join(figNames, ", "))
		os.Exit(2)
	}
}

// benchRecord is the persisted, machine-readable form of one figure.
// Everything in it is simulated, hence deterministic: the tracked
// BENCH_fig19.json, BENCH_fig20.json and BENCH_fig22.json are reproduced
// byte for byte by any build that has not changed the simulator's
// behaviour (TestBenchRecordsReproduce); two records agree when their
// bytes do.
type benchRecord struct {
	Figure  int              `json:"figure"`
	Rows    []figures.Row    `json:"rows"`
	Phi     *phimodel.Result `json:"xeonPhiModel,omitempty"`
	Profile bool             `json:"profile"` // rows carry perf snapshots
}

// record saves BENCH_fig<N>.json into outdir and shows the figure: the
// same bytes under -json, else the table.
func (b *bench) record(figNo int, rows []figures.Row, phi *phimodel.Result, table string) error {
	data, err := json.MarshalIndent(benchRecord{figNo, rows, phi, b.Profile}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.MkdirAll(b.outdir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.outdir, fmt.Sprintf("BENCH_fig%d.json", figNo))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	if !b.json {
		data = []byte(table)
	}
	_, err = b.out.Write(data)
	return err
}

func (b *bench) matmulFigure(h int) error {
	rows, err := b.RunMatmulFigure(h)
	if err != nil {
		return err
	}
	var phi *phimodel.Result
	if h == 256 {
		r := phimodel.Default().TiledMatmul(256)
		phi = &r
	}
	return b.record(figures.FigureForHarts(h), rows, phi, figures.FormatMatmulFigure(rows, phi))
}

// scaleFigure runs the E18 weak-scaling sweep (64/256/1024 cores) and
// records it as BENCH_fig22.json, in the matmul figures' row shape.
func (b *bench) scaleFigure() error {
	rows, err := b.RunScaleFigure()
	if err != nil {
		return err
	}
	return b.record(figures.FigureScale, rows, nil, figures.FormatScaleFigure(rows))
}

func (b *bench) determinism() error {
	var reports []figures.DetReport
	for _, v := range workloads.Variants {
		rep, err := b.RunDeterminism(v, 16, 3)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	}
	fmt.Fprint(b.out, figures.FormatDeterminism(reports))
	return nil
}

func (b *bench) ablation() error {
	rows, err := b.RunHartAblation(20000)
	if err != nil {
		return err
	}
	fmt.Fprint(b.out, figures.FormatAblation(rows))
	return nil
}

func (b *bench) locality() error {
	rows, err := b.RunLocality([]int{16, 64}, 128)
	if err != nil {
		return err
	}
	fmt.Fprint(b.out, figures.FormatLocality(rows))
	return nil
}

// designAblations sweeps the machine parameters DESIGN.md calls out.
func (b *bench) designAblations() error {
	hop, err := b.RunHopLatAblation(workloads.Base, 16, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	fmt.Fprint(b.out, figures.FormatAblationPoints("E8a — router hop latency sweep (base, 16 harts)", hop))
	bank, err := b.RunBankLatAblation(workloads.Base, 16, []int{1, 3, 6, 12})
	if err != nil {
		return err
	}
	fmt.Fprint(b.out, figures.FormatAblationPoints("E8b — shared-bank latency sweep (base, 16 harts)", bank))
	mo, err := b.RunMemOrderAblation(workloads.Copy, 16)
	if err != nil {
		return err
	}
	fmt.Fprint(b.out, figures.FormatAblationPoints("E8c — per-hart memory issue order (copy, 16 harts)", mo))
	fu, err := b.RunFULatAblation(workloads.Base, 16, []int{17, 68})
	if err != nil {
		return err
	}
	fmt.Fprint(b.out, figures.FormatAblationPoints("E8d — divider latency (off the matmul critical path)", fu))
	return nil
}

// response runs the E10 input-to-actuation sweep.
func (b *bench) response() error {
	rep, err := b.RunResponseSweep(b.phases)
	if err != nil {
		return err
	}
	fmt.Fprint(b.out, figures.FormatResponse(rep))
	return nil
}

// chips runs the Figure 15 multi-chip experiment.
func (b *bench) chips() error {
	pts, err := b.RunChipAblation(workloads.Base, 16, []int{0, 2, 1}, 25)
	if err != nil {
		return err
	}
	fmt.Fprint(b.out, figures.FormatAblationPoints(
		"E9 — Figure 15 chip lines (4 cores as 1, 2 or 4 chips; 25-cycle edges)", pts))
	return nil
}

// ioExperiment runs the Figure 16 sensor fusion with two different input
// schedules: same fused outputs, different cycle counts (E6).
func (b *bench) ioExperiment() error {
	prog, err := cc.Build(workloads.SensorFusionSource(2), cc.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Fprintln(b.out, "E6 — Figure 16 sensor fusion under two input schedules")
	for _, base := range []uint64{1000, 9000} {
		devices, act := workloads.SensorRig(prog, func(i int) []lbp.SensorEvent {
			return []lbp.SensorEvent{
				{Cycle: base + uint64(101*i), Value: uint32(10 * (i + 1))},
				{Cycle: 4*base + uint64(57*i), Value: uint32(20 * (i + 1))},
			}
		})
		sess, err := sim.New(sim.Spec{Program: prog, Cores: 1, Devices: devices, MaxCycles: 50_000_000})
		if err != nil {
			return err
		}
		res, err := sess.Run()
		if err != nil {
			return err
		}
		fmt.Fprintf(b.out, "schedule base=%5d: cycles=%8d actuator:", base, res.Stats.Cycles)
		for _, w := range act.Writes {
			fmt.Fprintf(b.out, " (%d @%d)", w.Value, w.Cycle)
		}
		fmt.Fprintln(b.out)
	}
	fmt.Fprintln(b.out, "(same fused values, cycle counts follow the inputs; ordering is preserved)")
	return nil
}
