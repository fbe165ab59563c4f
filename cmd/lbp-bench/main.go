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
// identical for any -parallel value. The matmul figures additionally
// record a machine-readable BENCH_fig<N>.json (rows, wall time, host
// info) next to -outdir so the performance trajectory can be tracked
// across changes.
//
// Usage:
//
//	lbp-bench [-parallel N] [-json] [-outdir DIR] [-profile] [-phases N] [-cpuprofile FILE] [-memprofile FILE] -fig 19|20|21|22|det|harts|io|locality|ablate|chips|response|all
//
// -profile embeds a deterministic performance-counter snapshot (cycle
// attribution by stall cause, retired mix, stage occupancy, per-link-class
// wait cycles, local/remote latency histograms) in every matmul figure row
// and therefore in the BENCH_fig<N>.json records. Counters never feed back
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
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/figures"
	"repro/internal/lbp"
	"repro/internal/phimodel"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// figNames lists the valid -fig values in run order.
var figNames = []string{"19", "20", "21", "22", "det", "harts", "io", "locality", "ablate", "chips", "response"}

func main() {
	fig := flag.String("fig", "all", "which figure/experiment to run: "+strings.Join(figNames, "|")+"|all")
	asJSON := flag.Bool("json", false, "emit matmul figure rows as JSON instead of tables")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for independent simulations (0 = all CPUs, 1 = sequential)")
	outdir := flag.String("outdir", ".", "directory receiving the BENCH_fig<N>.json records")
	profile := flag.Bool("profile", false, "embed deterministic perf-counter snapshots in matmul rows and BENCH records")
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
	jsonMode = *asJSON
	benchDir = *outdir
	responsePhases = *phases
	figures.Parallelism = *parallel
	figures.Profile = *profile
	figures.RecordThroughput = true
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
		// In JSON mode stdout carries only machine-readable rows (so two
		// runs diff byte-identically); progress goes to stderr.
		progress := os.Stdout
		if jsonMode {
			progress = os.Stderr
		}
		fmt.Fprintf(progress, "[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	run("19", func() error { return matmulFigure(16) })
	run("20", func() error { return matmulFigure(64) })
	run("21", func() error { return matmulFigure(256) })
	run("22", scaleFigure)
	run("det", determinism)
	run("harts", ablation)
	run("io", ioExperiment)
	run("locality", locality)
	run("ablate", designAblations)
	run("chips", chips)
	run("response", response)
	if !matched {
		fmt.Fprintf(os.Stderr, "lbp-bench: unknown -fig %q (valid: %s, all)\n",
			*fig, strings.Join(figNames, ", "))
		os.Exit(2)
	}
}

var (
	jsonMode       bool
	benchDir       string
	responsePhases int
)

// benchRecord is the persisted, machine-readable form of one matmul
// figure run: the figure rows plus enough host context to compare wall
// times across changes. Rows and digests are deterministic; wall time and
// host fields are the only parts expected to differ between hosts.
type benchRecord struct {
	Figure      int                 `json:"figure"`
	Rows        []figures.MatmulRow `json:"rows"`
	Phi         *phimodel.Result    `json:"xeonPhiModel,omitempty"`
	WallTimeSec float64             `json:"wallTimeSec"`
	Parallel    int                 `json:"parallel"` // the -parallel setting
	Profile     bool                `json:"profile"`  // rows carry perf snapshots
	Host        hostInfo            `json:"host"`
	GeneratedAt string              `json:"generatedAt"`
}

type hostInfo struct {
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
}

// writeBenchRecord saves BENCH_fig<N>.json into benchDir.
func writeBenchRecord(figNo int, rows []figures.MatmulRow, phi *phimodel.Result, wall time.Duration) error {
	rec := benchRecord{
		Figure:      figNo,
		Rows:        rows,
		Phi:         phi,
		WallTimeSec: wall.Seconds(),
		Parallel:    figures.Parallelism,
		Profile:     figures.Profile,
		Host: hostInfo{
			GoOS:       runtime.GOOS,
			GoArch:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
		},
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(benchDir, fmt.Sprintf("BENCH_fig%d.json", figNo))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func matmulFigure(h int) error {
	start := time.Now()
	rows, err := figures.RunMatmulFigure(h)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	var phi *phimodel.Result
	if h == 256 {
		r := phimodel.Default().TiledMatmul(256)
		phi = &r
	}
	if err := writeBenchRecord(figures.FigureForHarts(h), rows, phi, wall); err != nil {
		return err
	}
	if jsonMode {
		// stdout stays byte-identical across runs: drop the host-side
		// throughput (the only nondeterministic row content) — it is
		// recorded in the BENCH_fig<N>.json file instead.
		det := make([]figures.MatmulRow, len(rows))
		copy(det, rows)
		for i := range det {
			det[i].Host = nil
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Figure int                 `json:"figure"`
			Rows   []figures.MatmulRow `json:"rows"`
			Phi    *phimodel.Result    `json:"xeonPhiModel,omitempty"`
		}{figures.FigureForHarts(h), det, phi})
	}
	fmt.Print(figures.FormatMatmulFigure(rows, phi))
	return nil
}

// scaleFigure runs the E18 weak-scaling sweep (64/256/1024 cores) and
// records it as BENCH_fig22.json, reusing the matmul-figure row shape
// so benchdiff tracks its cycles, digests and host throughput.
func scaleFigure() error {
	start := time.Now()
	rows, err := figures.RunScaleFigure()
	if err != nil {
		return err
	}
	wall := time.Since(start)
	if err := writeBenchRecord(figures.FigureScale, rows, nil, wall); err != nil {
		return err
	}
	if jsonMode {
		det := make([]figures.MatmulRow, len(rows))
		copy(det, rows)
		for i := range det {
			det[i].Host = nil
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Figure int                 `json:"figure"`
			Rows   []figures.MatmulRow `json:"rows"`
		}{figures.FigureScale, det})
	}
	fmt.Print(figures.FormatScaleFigure(rows))
	return nil
}

func determinism() error {
	var reports []figures.DetReport
	for _, v := range workloads.Variants {
		rep, err := figures.RunDeterminism(v, 16, 3)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	}
	fmt.Print(figures.FormatDeterminism(reports))
	return nil
}

func ablation() error {
	rows, err := figures.RunHartAblation(20000)
	if err != nil {
		return err
	}
	fmt.Print(figures.FormatAblation(rows))
	return nil
}

func locality() error {
	var rows []figures.LocalityRow
	for _, h := range []int{16, 64} {
		row, err := figures.RunLocality(h, 128)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	fmt.Print(figures.FormatLocality(rows))
	return nil
}

// designAblations sweeps the machine parameters DESIGN.md calls out.
func designAblations() error {
	hop, err := figures.RunHopLatAblation(workloads.Base, 16, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	fmt.Print(figures.FormatAblationPoints("E8a — router hop latency sweep (base, 16 harts)", hop))
	bank, err := figures.RunBankLatAblation(workloads.Base, 16, []int{1, 3, 6, 12})
	if err != nil {
		return err
	}
	fmt.Print(figures.FormatAblationPoints("E8b — shared-bank latency sweep (base, 16 harts)", bank))
	mo, err := figures.RunMemOrderAblation(workloads.Copy, 16)
	if err != nil {
		return err
	}
	fmt.Print(figures.FormatAblationPoints("E8c — per-hart memory issue order (copy, 16 harts)", mo))
	fu, err := figures.RunFULatAblation(workloads.Base, 16, []int{17, 68})
	if err != nil {
		return err
	}
	fmt.Print(figures.FormatAblationPoints("E8d — divider latency (off the matmul critical path)", fu))
	return nil
}

// response runs the E10 input-to-actuation sweep.
func response() error {
	rep, err := figures.RunResponseSweep(responsePhases)
	if err != nil {
		return err
	}
	fmt.Print(figures.FormatResponse(rep))
	return nil
}

// chips runs the Figure 15 multi-chip experiment.
func chips() error {
	pts, err := figures.RunChipAblation(workloads.Base, 16, []int{0, 2, 1}, 25)
	if err != nil {
		return err
	}
	fmt.Print(figures.FormatAblationPoints(
		"E9 — Figure 15 chip lines (4 cores as 1, 2 or 4 chips; 25-cycle edges)", pts))
	return nil
}

// ioExperiment runs the Figure 16 sensor fusion with two different input
// schedules: same fused outputs, different cycle counts (E6).
func ioExperiment() error {
	src := workloads.SensorFusionSource(2)
	asmText, err := cc.BuildProgram(src, cc.DefaultOptions())
	if err != nil {
		return err
	}
	prog, err := asm.Assemble(asmText, asm.Options{})
	if err != nil {
		return err
	}
	runOnce := func(base uint64) (uint64, []lbp.ActuatorWrite, error) {
		var devices []lbp.Device
		for i := 0; i < 4; i++ {
			devices = append(devices, &lbp.Sensor{
				ValueAddr: prog.Symbols["sval"] + uint32(4*i),
				FlagAddr:  prog.Symbols["sflag"] + uint32(4*i),
				Events: []lbp.SensorEvent{
					{Cycle: base + uint64(101*i), Value: uint32(10 * (i + 1))},
					{Cycle: 4*base + uint64(57*i), Value: uint32(20 * (i + 1))},
				},
			})
		}
		act := &lbp.Actuator{
			ValueAddr: prog.Symbols["factuator"],
			SeqAddr:   prog.Symbols["aseq"],
		}
		devices = append(devices, act)
		sess, err := sim.New(sim.Spec{
			Program:   prog,
			Cores:     1,
			Devices:   devices,
			MaxCycles: 50_000_000,
		})
		if err != nil {
			return 0, nil, err
		}
		res, err := sess.Run()
		if err != nil {
			return 0, nil, err
		}
		return res.Stats.Cycles, act.Writes, nil
	}
	fmt.Println("E6 — Figure 16 sensor fusion under two input schedules")
	for _, base := range []uint64{1000, 9000} {
		cycles, writes, err := runOnce(base)
		if err != nil {
			return err
		}
		fmt.Printf("schedule base=%5d: cycles=%8d actuator:", base, cycles)
		for _, w := range writes {
			fmt.Printf(" (%d @%d)", w.Value, w.Cycle)
		}
		fmt.Println()
	}
	fmt.Println("(same fused values, cycle counts follow the inputs; ordering is preserved)")
	return nil
}
