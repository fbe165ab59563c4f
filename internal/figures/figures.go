// Package figures reproduces the evaluation of the paper: Figures 19, 20
// and 21 (cycles, IPC and retired instructions of the five matrix
// multiplication versions on 4-, 16- and 64-core LBP machines, plus the
// Xeon-Phi-like model for Figure 21), and the supporting experiments of
// DESIGN.md: cycle determinism (E4), hart-count latency hiding (E5),
// deterministic I/O (E6) and the locality of placed two-phase programs
// (E7).
package figures

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/lbp"
	"repro/internal/perf"
	"repro/internal/phimodel"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Parallelism is the worker count the figure runners hand to
// internal/runner when fanning out independent simulations: 1 (the
// default) runs strictly sequentially, 0 uses all host CPUs, any other
// value caps the pool at that many goroutines.
//
// Parallelism never reaches inside a simulated machine — each worker
// builds and runs its own single-threaded lbp.Machine — so results,
// cycle counts and event-trace digests are identical for every setting
// (asserted by the equivalence tests in parallel_test.go). Programs are
// compiled before the fan-out; workers only simulate.
var Parallelism = 1

// Profile, when true, enables per-run performance counters on every
// matmul figure machine: stall attribution, stage occupancy, retired mix
// and memory-side counters are snapshotted into MatmulRow.Perf. Counters
// are deterministic — a pure function of the program and configuration —
// so snapshots, like digests, are byte-identical for any Parallelism.
var Profile = false

// FastForward toggles idle-cycle fast-forward on the figure machines
// (on by default, matching lbp.New). Exposed for the equivalence tests.
var FastForward = true

// RecordThroughput, when true, attaches host-side wall-time and
// simulated-cycles-per-second to each figure row (MatmulRow.Host).
// Off by default: throughput is the only nondeterministic content a row
// can carry, and the equivalence tests compare rows with DeepEqual.
var RecordThroughput = false

// ThroughputRepeats is how many times a row's simulation runs when
// RecordThroughput is on; the reported wall time is the fastest run.
// A single 5-20ms run is dominated by cold-start noise (first-touch
// page faults, GC warm-up), so a best-of-N over a reset warm machine is
// what the throughput comparison in benchdiff needs. The repeats double
// as a determinism check: every run must reproduce the first digest.
var ThroughputRepeats = 3

// pool recycles warm machines across the figure sweeps: every run of
// the same variant size reuses a reset machine instead of reallocating
// banks, link queues and reorder buffers. sim.Pool is safe for the
// Parallelism-sized fan-out.
var pool sim.Pool

// Throughput records the host-side execution speed of one simulation.
type Throughput struct {
	WallSec       float64 // host seconds inside Machine.Run
	CyclesPerSec  float64 // simulated cycles per host second
	FastForwarded uint64  // simulated cycles covered by fast-forward
}

// MatmulRow is one bar group of Figures 19-21. Digest and Events identify
// the full event trace of the run (experiment E4): two runs of the same
// variant and machine size must agree on them exactly, regardless of the
// host-side worker count that produced the row.
type MatmulRow struct {
	Variant workloads.MatmulVariant
	Harts   int
	Cycles  uint64
	Retired uint64
	IPC     float64
	Remote  uint64 // routed shared accesses
	Local   uint64 // local-bank + own-shared-bank accesses
	Digest  uint64 // event-trace digest of the run
	Events  uint64 // number of trace events folded into Digest

	// Perf is the deterministic counter snapshot of the run; nil unless
	// the Profile knob (lbp-bench -profile) is on.
	Perf *perf.Snapshot `json:",omitempty"`

	// Host is the host-side throughput of the run; nil unless the
	// RecordThroughput knob (lbp-bench) is on.
	Host *Throughput `json:",omitempty"`
}

// RunMatmul builds, runs and verifies one variant at h harts.
func RunMatmul(v workloads.MatmulVariant, h int) (MatmulRow, error) {
	prog, err := workloads.BuildMatmul(v, h)
	if err != nil {
		return MatmulRow{}, err
	}
	return runMatmulProg(prog, v, h)
}

// runMatmulProg runs a pre-assembled variant on a pooled machine with a
// digest-only trace recorder attached. prog is only read, so concurrent
// calls may share it.
func runMatmulProg(prog *asm.Program, v workloads.MatmulVariant, h int) (MatmulRow, error) {
	cfg := workloads.MatmulConfig(h)
	sess, err := pool.Get(sim.Spec{
		Program:       prog,
		Config:        &cfg,
		MaxCycles:     workloads.MaxMatmulCycles(h),
		Trace:         sim.TraceSpec{Digest: true},
		Profile:       Profile,
		NoFastForward: !FastForward,
	})
	if err != nil {
		return MatmulRow{}, err
	}
	start := time.Now()
	res, err := sess.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return MatmulRow{}, fmt.Errorf("figures: %s/%d: %w", v, h, err)
	}
	if err := workloads.VerifyMatmul(sess.Machine(), prog, v, h); err != nil {
		return MatmulRow{}, err
	}
	rec := sess.Recorder()
	row := MatmulRow{
		Variant: v,
		Harts:   h,
		Cycles:  res.Stats.Cycles,
		Retired: res.Stats.Retired,
		Perf:    sess.PerfSnapshot(),
		IPC:     res.Stats.IPC(),
		Remote:  res.Mem.SharedRemote,
		Local:   res.Mem.SharedLocal + res.Mem.LocalAccesses,
		Digest:  rec.Digest(),
		Events:  rec.Count(),
	}
	if RecordThroughput {
		for i := 1; i < ThroughputRepeats; i++ {
			if err := sess.Reset(prog); err != nil {
				return MatmulRow{}, fmt.Errorf("figures: %s/%d: rerun reset: %w", v, h, err)
			}
			rstart := time.Now()
			rres, err := sess.Run()
			rwall := time.Since(rstart).Seconds()
			if err != nil {
				return MatmulRow{}, fmt.Errorf("figures: %s/%d: rerun: %w", v, h, err)
			}
			if d := sess.Recorder().Digest(); d != row.Digest {
				return MatmulRow{}, fmt.Errorf("figures: %s/%d: rerun digest %#x != %#x",
					v, h, d, row.Digest)
			}
			if rwall < wall {
				wall = rwall
				res = rres
			}
		}
		t := &Throughput{
			WallSec:       wall,
			FastForwarded: res.Stats.FastForwarded,
		}
		if wall > 0 {
			t.CyclesPerSec = float64(res.Stats.Cycles) / wall
		}
		row.Host = t
	}
	pool.Put(sess)
	return row, nil
}

// RunMatmulFigure runs all five variants for one machine size. The
// variants compile sequentially, then simulate on the Parallelism-sized
// worker pool; rows come back in Variants order either way.
func RunMatmulFigure(h int) ([]MatmulRow, error) {
	progs := make([]*asm.Program, len(workloads.Variants))
	for i, v := range workloads.Variants {
		p, err := workloads.BuildMatmul(v, h)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return runner.Map(Parallelism, len(progs), func(i int) (MatmulRow, error) {
		return runMatmulProg(progs[i], workloads.Variants[i], h)
	})
}

// FigureForHarts maps a hart count to the paper's figure number.
func FigureForHarts(h int) int {
	switch h {
	case 16:
		return 19
	case 64:
		return 20
	case 256:
		return 21
	}
	return 0
}

// FormatMatmulFigure renders a figure like the paper's histograms
// (number of cycles, IPC, retired instructions per version). For
// Figure 21 pass the Phi model result; otherwise phi may be nil.
func FormatMatmulFigure(rows []MatmulRow, phi *phimodel.Result) string {
	var b strings.Builder
	h := rows[0].Harts
	fmt.Fprintf(&b, "Figure %d — matrix multiplication on a %d-core LBP (%d harts)\n",
		FigureForHarts(h), h/4, h)
	fmt.Fprintf(&b, "%-14s %14s %8s %14s %10s %10s\n",
		"version", "cycles", "IPC", "retired", "remote", "local")
	best := rows[0]
	for _, r := range rows {
		if r.Cycles < best.Cycles {
			best = r
		}
	}
	for _, r := range rows {
		mark := " "
		if r.Variant == best.Variant {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-13s%s %14d %8.2f %14d %10d %10d\n",
			r.Variant, mark, r.Cycles, r.IPC, r.Retired, r.Remote, r.Local)
	}
	if phi != nil {
		fmt.Fprintf(&b, "%-14s %14d %8.2f %14d %10s %10s   (calibrated model)\n",
			"xeon-phi2", phi.Cycles, phi.IPC, phi.Instructions, "-", "-")
	}
	fmt.Fprintf(&b, "(* fastest; peak IPC = %d)\n", h/4)
	return b.String()
}

// ---- E4: cycle determinism ------------------------------------------------

// DetReport summarizes repeated runs of one program.
type DetReport struct {
	Variant  workloads.MatmulVariant
	Harts    int
	Runs     int
	Digests  []uint64
	Cycles   []uint64
	AllEqual bool
}

// RunDeterminism runs a variant `n` times with full event tracing and
// compares the digests and cycle counts. The repeats are independent
// whole-machine simulations, so they fan out across the worker pool; the
// comparison happens after all runs, in run order.
func RunDeterminism(v workloads.MatmulVariant, h, n int) (DetReport, error) {
	rep := DetReport{Variant: v, Harts: h, Runs: n, AllEqual: true}
	prog, err := workloads.BuildMatmul(v, h)
	if err != nil {
		return rep, err
	}
	type detRun struct {
		digest uint64
		cycles uint64
	}
	runs, err := runner.Map(Parallelism, n, func(int) (detRun, error) {
		cfg := workloads.MatmulConfig(h)
		sess, err := pool.Get(sim.Spec{
			Program:   prog,
			Config:    &cfg,
			MaxCycles: workloads.MaxMatmulCycles(h),
			Trace:     sim.TraceSpec{Digest: true},
		})
		if err != nil {
			return detRun{}, err
		}
		res, err := sess.Run()
		if err != nil {
			return detRun{}, err
		}
		r := detRun{digest: sess.Recorder().Digest(), cycles: res.Stats.Cycles}
		pool.Put(sess)
		return r, nil
	})
	if err != nil {
		return rep, err
	}
	for i, r := range runs {
		rep.Digests = append(rep.Digests, r.digest)
		rep.Cycles = append(rep.Cycles, r.cycles)
		if rep.Digests[i] != rep.Digests[0] || rep.Cycles[i] != rep.Cycles[0] {
			rep.AllEqual = false
		}
	}
	return rep, nil
}

// FormatDeterminism renders E4.
func FormatDeterminism(reports []DetReport) string {
	var b strings.Builder
	b.WriteString("E4 — cycle determinism: repeated runs, full event-trace digests\n")
	fmt.Fprintf(&b, "%-14s %6s %6s %18s %12s %s\n",
		"version", "harts", "runs", "digest", "cycles", "identical")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-14s %6d %6d %#18x %12d %v\n",
			r.Variant, r.Harts, r.Runs, r.Digests[0], r.Cycles[0], r.AllEqual)
	}
	return b.String()
}

// ---- E5: latency hiding through multithreading -----------------------------

// AblationRow is one point of the hart-count ablation.
type AblationRow struct {
	Harts   int // team size on a single core
	Cycles  uint64
	Retired uint64
	IPC     float64
}

// ablationSource runs k harts on one core, each over a dependent ALU
// chain, so the IPC reflects pure pipeline filling (no memory effects).
func ablationSource(k, iters int) string {
	return fmt.Sprintf(`
#define K %d
#define N %d
int out[4];
void main() {
	int t;
	#pragma omp parallel for
	for (t = 0; t < K; t++) {
		int x;
		int i;
		x = t + 1;
		for (i = 0; i < N; i++) x = x * 5 + 7;
		out[t] = x;
	}
}
`, k, iters)
}

// RunHartAblation measures core IPC with 1..4 active harts (E5: the
// paper's claim that ~1 IPC/core needs all four harts; a single hart is
// limited by the fetch suspension after every instruction). The four
// team sizes compile sequentially and simulate in parallel.
func RunHartAblation(iters int) ([]AblationRow, error) {
	progs := make([]*asm.Program, lbp.HartsPerCore)
	for k := 1; k <= lbp.HartsPerCore; k++ {
		asmText, err := cc.BuildProgram(ablationSource(k, iters), cc.DefaultOptions())
		if err != nil {
			return nil, err
		}
		prog, err := asm.Assemble(asmText, asm.Options{})
		if err != nil {
			return nil, err
		}
		progs[k-1] = prog
	}
	return runner.Map(Parallelism, len(progs), func(i int) (AblationRow, error) {
		k := i + 1
		sess, err := sim.New(sim.Spec{
			Program:   progs[i],
			Cores:     1,
			MaxCycles: uint64(200*iters*k + 1_000_000),
		})
		if err != nil {
			return AblationRow{}, err
		}
		res, err := sess.Run()
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Harts:   k,
			Cycles:  res.Stats.Cycles,
			Retired: res.Stats.Retired,
			IPC:     res.Stats.IPC(),
		}, nil
	})
}

// FormatAblation renders E5.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("E5 — core IPC vs active harts (dependent ALU chains, one core)\n")
	fmt.Fprintf(&b, "%6s %12s %12s %8s\n", "harts", "cycles", "retired", "IPC")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %12d %12d %8.2f\n", r.Harts, r.Cycles, r.Retired, r.IPC)
	}
	b.WriteString("(peak 1 IPC/core; a lone hart is bounded by the per-fetch suspension)\n")
	return b.String()
}

// ---- E7: locality of the placed two-phase program --------------------------

// LocalityRow reports the Figure 4 experiment.
type LocalityRow struct {
	Harts   int
	Cycles  uint64
	Remote  uint64
	Local   uint64
	AllZero bool // no routed accesses at all
}

// localitySource is the Figure 4 program: a set phase then a get phase
// over a vector whose chunk t lives in the bank of the core running
// hart t — every access is local.
func localitySource(h, chunk int) string {
	return fmt.Sprintf(`
#define H %d
#define CHUNK %d
#define RESW 128

int *vchunk(int t) { return lbp_bank_ptr(t >> 2) + RESW + (t & 3) * CHUNK; }

void main() {
	int t;
	#pragma omp parallel for
	for (t = 0; t < H; t++) {
		int *p; int i;
		p = vchunk(t);
		for (i = 0; i < CHUNK; i++) { *p = t + i; p = p + 1; }
	}
	#pragma omp parallel for
	for (t = 0; t < H; t++) {
		int *p; int i; int acc;
		p = vchunk(t);
		acc = 0;
		for (i = 0; i < CHUNK; i++) { acc = acc + *p; p = p + 1; }
		*vchunk(t) = acc;
	}
}
`, h, chunk)
}

// RunLocality runs the placed set/get program and reports the access mix.
func RunLocality(h, chunk int) (LocalityRow, error) {
	opt := cc.DefaultOptions()
	opt.Cores = h / 4
	opt.BankReserveBytes = 512
	asmText, err := cc.BuildProgram(localitySource(h, chunk), opt)
	if err != nil {
		return LocalityRow{}, err
	}
	prog, err := asm.Assemble(asmText, asm.Options{})
	if err != nil {
		return LocalityRow{}, err
	}
	sess, err := sim.New(sim.Spec{
		Program:   prog,
		Cores:     h / 4,
		MaxCycles: uint64(h*chunk*1000 + 1_000_000),
	})
	if err != nil {
		return LocalityRow{}, err
	}
	res, err := sess.Run()
	if err != nil {
		return LocalityRow{}, err
	}
	return LocalityRow{
		Harts:   h,
		Cycles:  res.Stats.Cycles,
		Remote:  res.Mem.SharedRemote,
		Local:   res.Mem.SharedLocal + res.Mem.LocalAccesses,
		AllZero: res.Mem.SharedRemote == 0,
	}, nil
}

// FormatLocality renders E7.
func FormatLocality(rows []LocalityRow) string {
	var b strings.Builder
	b.WriteString("E7 — Figure 4 placement: set/get phases on aligned harts and banks\n")
	fmt.Fprintf(&b, "%6s %12s %10s %10s %s\n", "harts", "cycles", "remote", "local", "all-local")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %12d %10d %10d %v\n", r.Harts, r.Cycles, r.Remote, r.Local, r.AllZero)
	}
	return b.String()
}
