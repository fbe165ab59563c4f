package figures

// The scaling figure (E18, recorded as BENCH_fig22.json) is the
// companion of the 256-to-1024-core growth work: the Figure 4 placed
// set/get program, weak-scaled so every hart owns a fixed chunk of its
// core's bank, run at 64, 256 and 1024 cores. Cycles and digests are
// deterministic anchors for the scaling tests; the Host throughput
// column is what the per-core commit lanes and the generalized router
// hierarchy are supposed to move.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/lbp"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// ScaleCores lists the machine sizes of the scaling figure, largest
// last so a progress-watching run fails fast on the cheap points.
var ScaleCores = []int{64, 256, 1024}

// scaleChunk is the number of words each hart writes and reads back:
// the per-hart work is constant, so the sweep is a weak-scaling curve.
const scaleChunk = 64

// scaleReserveBytes keeps the compiler's bank reserve below the RESW
// offset the program addresses past (128 words).
const scaleReserveBytes = 512

// FigureScale is the figure number the scaling sweep is recorded under.
const FigureScale = 22

// buildScaleProgram compiles the placed set/get program for an n-core
// machine (4n harts).
func buildScaleProgram(n int) (*asm.Program, error) {
	opt := cc.DefaultOptions()
	opt.Cores = n
	opt.BankReserveBytes = scaleReserveBytes
	asmText, err := cc.BuildProgram(localitySource(n*lbp.HartsPerCore, scaleChunk), opt)
	if err != nil {
		return nil, fmt.Errorf("figures: scale/%dc: compile: %w", n, err)
	}
	prog, err := asm.Assemble(asmText, asm.Options{})
	if err != nil {
		return nil, fmt.Errorf("figures: scale/%dc: assemble: %w", n, err)
	}
	return prog, nil
}

// verifyScale checks every hart's get-phase reduction: chunk t must end
// holding sum(t..t+CHUNK-1), through the same placement arithmetic the
// program uses. A wrong sum means a miscompiled or misrouted run, which
// a digest alone would happily reproduce.
func verifyScale(m *lbp.Machine, n int) error {
	bankBytes := m.Config().Mem.SharedBytes
	for t := 0; t < n*lbp.HartsPerCore; t++ {
		addr := 0x80000000 + uint32(t>>2)*bankBytes + 4*uint32(128+(t&3)*scaleChunk)
		val, ok := m.ReadShared(addr)
		if !ok {
			return fmt.Errorf("figures: scale/%dc: chunk %d unmapped at %#x", n, t, addr)
		}
		want := uint32(scaleChunk*t + scaleChunk*(scaleChunk-1)/2)
		if val != want {
			return fmt.Errorf("figures: scale/%dc: chunk %d = %d, want %d", n, t, val, want)
		}
	}
	return nil
}

// runScaleProg runs one pre-assembled scale point on a pooled machine,
// mirroring runMatmulProg: digest-only tracing, optional perf counters,
// and a best-of-ThroughputRepeats host-throughput measurement with a
// digest recheck on every repeat.
func runScaleProg(prog *asm.Program, n int) (MatmulRow, error) {
	sess, err := pool.Get(sim.Spec{
		Program:       prog,
		Cores:         n,
		MaxCycles:     uint64(n)*4*scaleChunk*1000 + 1_000_000,
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
		return MatmulRow{}, fmt.Errorf("figures: scale/%dc: %w", n, err)
	}
	if err := verifyScale(sess.Machine(), n); err != nil {
		return MatmulRow{}, err
	}
	if res.Mem.SharedRemote != 0 {
		return MatmulRow{}, fmt.Errorf("figures: scale/%dc: %d routed accesses in an all-local placement",
			n, res.Mem.SharedRemote)
	}
	rec := sess.Recorder()
	row := MatmulRow{
		Variant: workloads.MatmulVariant(fmt.Sprintf("scale-%dc", n)),
		Harts:   n * lbp.HartsPerCore,
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
				return MatmulRow{}, fmt.Errorf("figures: scale/%dc: rerun reset: %w", n, err)
			}
			rstart := time.Now()
			rres, err := sess.Run()
			rwall := time.Since(rstart).Seconds()
			if err != nil {
				return MatmulRow{}, fmt.Errorf("figures: scale/%dc: rerun: %w", n, err)
			}
			if d := sess.Recorder().Digest(); d != row.Digest {
				return MatmulRow{}, fmt.Errorf("figures: scale/%dc: rerun digest %#x != %#x", n, d, row.Digest)
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

// RunScaleFigure runs the weak-scaling sweep over ScaleCores. Points
// compile sequentially, then simulate on the Parallelism-sized worker
// pool; rows come back in ScaleCores order either way.
func RunScaleFigure() ([]MatmulRow, error) {
	progs := make([]*asm.Program, len(ScaleCores))
	for i, n := range ScaleCores {
		p, err := buildScaleProgram(n)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return runner.Map(Parallelism, len(progs), func(i int) (MatmulRow, error) {
		return runScaleProg(progs[i], ScaleCores[i])
	})
}

// FormatScaleFigure renders the sweep as a weak-scaling table: cycles
// should grow roughly linearly in the core count (the serpentine
// backward line of the fork/join wave), IPC should stay near flat, and
// every access stays local.
func FormatScaleFigure(rows []MatmulRow) string {
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
