// Package figures reproduces the evaluation of the paper: Figures 19, 20
// and 21 (cycles, IPC and retired instructions of the five matrix
// multiplication versions on 4-, 16- and 64-core LBP machines, plus the
// Xeon-Phi-like model for Figure 21), and the supporting experiments of
// DESIGN.md: cycle determinism (E4), hart-count latency hiding (E5),
// deterministic I/O (E6), the locality of placed two-phase programs
// (E7), the design-parameter sweeps (E8, E9), the response-time sweep
// (E10) and the weak-scaling sweep (E18).
//
// Every experiment is a list of points — a label, a sim.Spec and a check
// of the finished machine — and every point goes through Runner.run.
package figures

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cc"
	"repro/internal/lbp"
	"repro/internal/perf"
	"repro/internal/phimodel"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Runner runs the experiments; its methods are the experiments. The
// zero value uses all host CPUs and does not profile.
//
// Neither field reaches the simulated results: each worker builds and
// runs its own single-threaded machine and the counters never feed back
// into timing, so rows — cycles, digests, perf snapshots — are identical
// for every Runner (asserted by parallel_test.go and hostknobs_test.go).
type Runner struct {
	// Workers is the number of goroutines independent simulations fan
	// out over (see internal/runner): 1 runs sequentially, 0 uses all
	// host CPUs. Programs are compiled before the fan-out.
	Workers int
	// Profile snapshots the deterministic performance counters of every
	// run into Row.Perf.
	Profile bool

	// noFastForward single-steps idle cycles; the host-knob equivalence
	// test is its only user.
	noFastForward bool
}

// pool recycles warm machines across the sweeps: runs of the same
// geometry reuse a reset machine instead of reallocating banks, link
// queues and reorder buffers. sim.Pool is safe for the fan-out.
var pool sim.Pool

// Row is the outcome of one simulation. Digest and Events identify the
// full event trace of the run (experiment E4): two runs of the same
// point must agree on them exactly, whatever Runner produced the row.
type Row struct {
	// Label names the point within its experiment: the matmul version,
	// a sweep setting ("hop=4"), "scale-64c". The BENCH records call
	// it Variant.
	Label   string `json:"Variant"`
	Harts   int    // harts of the machine
	Cycles  uint64
	Retired uint64
	IPC     float64
	Remote  uint64 // routed shared accesses
	Local   uint64 // local-bank + own-shared-bank accesses
	Digest  uint64 // event-trace digest of the run
	Events  uint64 // number of trace events folded into Digest

	// Perf is the counter snapshot of the run; nil unless Runner.Profile.
	Perf *perf.Snapshot `json:",omitempty"`
}

// point is one simulation of an experiment. check, when non-nil, judges
// the finished machine: a wrong result must fail the row, since a digest
// alone would happily reproduce it.
type point struct {
	label string
	spec  sim.Spec
	check func(*lbp.Machine, *lbp.Result) error
}

// run is the one path from a Spec to a Row: a pooled machine with the
// digest recorder (and, under Profile, the counters) attached, one Run,
// the point's check, the counters copied out.
func (r Runner) run(pt point) (Row, error) {
	spec := pt.spec
	spec.Trace.Digest = true
	spec.Profile = r.Profile
	spec.NoFastForward = r.noFastForward
	sess, err := pool.Get(spec)
	if err != nil {
		return Row{}, fmt.Errorf("figures: %s: %w", pt.label, err)
	}
	res, err := sess.Run()
	if err == nil && pt.check != nil {
		err = pt.check(sess.Machine(), res)
	}
	if err != nil {
		return Row{}, fmt.Errorf("figures: %s: %w", pt.label, err)
	}
	cores := sess.Config().Cores
	row := Row{
		Label:   pt.label,
		Harts:   cores * lbp.HartsPerCore,
		Cycles:  res.Stats.Cycles,
		Retired: res.Stats.Retired,
		IPC:     res.Stats.IPC(),
		Remote:  res.Mem.SharedRemote,
		Local:   res.Mem.SharedLocal + res.Mem.LocalAccesses,
		Digest:  sess.Recorder().Digest(),
		Events:  sess.Recorder().Count(),
		Perf:    sess.PerfSnapshot(),
	}
	pool.Put(sess)
	return row, nil
}

// runAll simulates the points on the worker pool; rows come back in
// point order for any worker count.
func (r Runner) runAll(points []point) ([]Row, error) {
	return runner.Map(r.Workers, len(points), func(i int) (Row, error) {
		return r.run(points[i])
	})
}

// ---- Figures 19-21: the five matmul versions -------------------------------

// matmulPoint builds variant v for h harts on the machine of the
// paper's experiment; the check is Z == h/2 everywhere.
func matmulPoint(v workloads.MatmulVariant, h int) (point, error) {
	prog, err := workloads.BuildMatmul(v, h)
	if err != nil {
		return point{}, err
	}
	cfg := workloads.MatmulConfig(h)
	return point{
		label: string(v),
		spec:  sim.Spec{Program: prog, Config: &cfg, MaxCycles: workloads.MaxMatmulCycles(h)},
		check: func(m *lbp.Machine, _ *lbp.Result) error {
			return workloads.VerifyMatmul(m, prog, v, h)
		},
	}, nil
}

// RunMatmul builds, runs and verifies one variant at h harts.
func (r Runner) RunMatmul(v workloads.MatmulVariant, h int) (Row, error) {
	pt, err := matmulPoint(v, h)
	if err != nil {
		return Row{}, err
	}
	return r.run(pt)
}

// RunMatmulFigure runs all five variants for one machine size; rows come
// back in workloads.Variants order.
func (r Runner) RunMatmulFigure(h int) ([]Row, error) {
	points := make([]point, len(workloads.Variants))
	for i, v := range workloads.Variants {
		var err error
		if points[i], err = matmulPoint(v, h); err != nil {
			return nil, err
		}
	}
	return r.runAll(points)
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
func FormatMatmulFigure(rows []Row, phi *phimodel.Result) string {
	var b strings.Builder
	h := 0
	if len(rows) > 0 {
		h = rows[0].Harts
	}
	fmt.Fprintf(&b, "Figure %d — matrix multiplication on a %d-core LBP (%d harts)\n",
		FigureForHarts(h), h/4, h)
	fmt.Fprintf(&b, "%-14s %14s %8s %14s %10s %10s\n",
		"version", "cycles", "IPC", "retired", "remote", "local")
	if len(rows) == 0 {
		return b.String()
	}
	best := rows[0]
	for _, r := range rows {
		if r.Cycles < best.Cycles {
			best = r
		}
	}
	for _, r := range rows {
		mark := " "
		if r.Label == best.Label {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-13s%s %14d %8.2f %14d %10d %10d\n",
			r.Label, mark, r.Cycles, r.IPC, r.Retired, r.Remote, r.Local)
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

// RunDeterminism runs a variant n times and compares the event-trace
// digests and cycle counts, in run order, after all runs.
func (r Runner) RunDeterminism(v workloads.MatmulVariant, h, n int) (DetReport, error) {
	rep := DetReport{Variant: v, Harts: h, Runs: n, AllEqual: true}
	pt, err := matmulPoint(v, h)
	if err != nil {
		return rep, err
	}
	points := make([]point, n)
	for i := range points {
		points[i] = pt
	}
	rows, err := r.runAll(points)
	if err != nil {
		return rep, err
	}
	for _, row := range rows {
		rep.Digests = append(rep.Digests, row.Digest)
		rep.Cycles = append(rep.Cycles, row.Cycles)
		if row.Digest != rows[0].Digest || row.Cycles != rows[0].Cycles {
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
		if len(r.Digests) == 0 {
			continue // a report of zero runs has nothing to show
		}
		fmt.Fprintf(&b, "%-14s %6d %6d %#18x %12d %v\n",
			r.Variant, r.Harts, r.Runs, r.Digests[0], r.Cycles[0], r.AllEqual)
	}
	return b.String()
}

// ---- E5: latency hiding through multithreading -----------------------------

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
// limited by the fetch suspension after every instruction). Row k-1 is
// the team of k harts on one core, labelled k.
func (r Runner) RunHartAblation(iters int) ([]Row, error) {
	points := make([]point, lbp.HartsPerCore)
	for i := range points {
		k := i + 1
		prog, err := cc.Build(ablationSource(k, iters), cc.DefaultOptions())
		if err != nil {
			return nil, err
		}
		points[i] = point{
			label: strconv.Itoa(k),
			spec:  sim.Spec{Program: prog, Cores: 1, MaxCycles: uint64(200*iters*k + 1_000_000)},
		}
	}
	return r.runAll(points)
}

// FormatAblation renders E5.
func FormatAblation(rows []Row) string {
	var b strings.Builder
	b.WriteString("E5 — core IPC vs active harts (dependent ALU chains, one core)\n")
	fmt.Fprintf(&b, "%6s %12s %12s %8s\n", "harts", "cycles", "retired", "IPC")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6s %12d %12d %8.2f\n", r.Label, r.Cycles, r.Retired, r.IPC)
	}
	b.WriteString("(peak 1 IPC/core; a lone hart is bounded by the per-fetch suspension)\n")
	return b.String()
}

// ---- E7, E18: the placed two-phase program ---------------------------------

// placedReserveBytes keeps the compiler's bank reserve below the RESW
// offset the placed program addresses past (128 words).
const placedReserveBytes = 512

// placedSource is the Figure 4 program: a set phase then a get phase
// over a vector whose chunk t lives in the bank of the core running
// hart t — every access is local.
func placedSource(h, chunk int) string {
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

// placedPoint compiles the placed set/get program for an h-hart machine,
// every hart owning chunk words of its core's bank. The check reads
// back every hart's get-phase reduction — chunk t must end holding
// sum(t..t+chunk-1), through the same placement arithmetic the program
// uses — and requires that no access was routed.
func placedPoint(label string, h, chunk int) (point, error) {
	opt := cc.DefaultOptions()
	opt.Cores = h / lbp.HartsPerCore
	opt.BankReserveBytes = placedReserveBytes
	prog, err := cc.Build(placedSource(h, chunk), opt)
	if err != nil {
		return point{}, fmt.Errorf("figures: %s: %w", label, err)
	}
	return point{
		label: label,
		spec: sim.Spec{
			Program:   prog,
			Cores:     opt.Cores,
			MaxCycles: uint64(h*chunk*1000 + 1_000_000),
		},
		check: func(m *lbp.Machine, res *lbp.Result) error {
			bankBytes := m.Config().Mem.SharedBytes
			for t := 0; t < h; t++ {
				addr := 0x80000000 + uint32(t>>2)*bankBytes + 4*uint32(128+(t&3)*chunk)
				val, ok := m.ReadShared(addr)
				if !ok {
					return fmt.Errorf("chunk %d unmapped at %#x", t, addr)
				}
				if want := uint32(chunk*t + chunk*(chunk-1)/2); val != want {
					return fmt.Errorf("chunk %d = %d, want %d", t, val, want)
				}
			}
			if res.Mem.SharedRemote != 0 {
				return fmt.Errorf("%d routed accesses in an all-local placement", res.Mem.SharedRemote)
			}
			return nil
		},
	}, nil
}

// RunLocality runs the placed set/get program (E7) once per entry of
// harts, each hart owning chunk words.
func (r Runner) RunLocality(harts []int, chunk int) ([]Row, error) {
	points := make([]point, len(harts))
	for i, h := range harts {
		var err error
		if points[i], err = placedPoint(fmt.Sprintf("placed-%d", h), h, chunk); err != nil {
			return nil, err
		}
	}
	return r.runAll(points)
}

// FormatLocality renders E7.
func FormatLocality(rows []Row) string {
	var b strings.Builder
	b.WriteString("E7 — Figure 4 placement: set/get phases on aligned harts and banks\n")
	fmt.Fprintf(&b, "%6s %12s %10s %10s %s\n", "harts", "cycles", "remote", "local", "all-local")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %12d %10d %10d %v\n", r.Harts, r.Cycles, r.Remote, r.Local, r.Remote == 0)
	}
	return b.String()
}

// FigureScale is the figure number the scaling sweep is recorded under.
const FigureScale = 22

// RunScaleFigure runs the weak-scaling sweep (E18, BENCH_fig22.json):
// the placed program at 64, 256 and 1024 cores with a fixed 64-word
// chunk per hart, so the per-hart work is constant. Cycles and digests
// are the deterministic anchors of the scaling tests. Largest last, so
// a progress-watching run fails fast on the cheap points.
func (r Runner) RunScaleFigure() ([]Row, error) {
	var points []point
	for _, n := range []int{64, 256, 1024} {
		pt, err := placedPoint(fmt.Sprintf("scale-%dc", n), n*lbp.HartsPerCore, 64)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return r.runAll(points)
}

// FormatScaleFigure renders the sweep as a weak-scaling table: cycles
// should grow roughly linearly in the core count (the serpentine
// backward line of the fork/join wave), IPC should stay near flat, and
// every access stays local.
func FormatScaleFigure(rows []Row) string {
	var b strings.Builder
	b.WriteString("E18 — weak-scaling set/get sweep (fixed chunk per hart)\n")
	fmt.Fprintf(&b, "%6s %6s %12s %12s %7s %10s %8s\n",
		"cores", "harts", "cycles", "retired", "IPC", "local", "remote")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %6d %12d %12d %7.2f %10d %8d\n",
			r.Harts/lbp.HartsPerCore, r.Harts, r.Cycles, r.Retired, r.IPC, r.Local, r.Remote)
	}
	return b.String()
}
