package lbp_test

// Host-side microbenchmarks of the simulator hot path: simulated cycles
// per host second inside Machine.Run on the fig-19 workloads, plus the
// raw stepping rate of a single machine. Run them with
//
//	go test -bench 'MachineStep|FigRow|Matmul64|PhaseBCommit' -run @ ./internal/lbp
//
// (scripts/verify.sh -bench N runs them after it compares the figure's
// regenerated BENCH record with the tracked one).

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/lbp"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// benchSession builds a fig-19 session (digest tracing on, like the
// BENCH record's rows) for one matmul variant at h harts.
func benchSession(v workloads.MatmulVariant, h int) (*sim.Session, error) {
	prog, err := workloads.BuildMatmul(v, h)
	if err != nil {
		return nil, err
	}
	cfg := workloads.MatmulConfig(h)
	return sim.New(sim.Spec{
		Program:   prog,
		Config:    &cfg,
		MaxCycles: workloads.MaxMatmulCycles(h),
		Trace:     sim.TraceSpec{Digest: true},
	})
}

// BenchmarkMachineStep measures the raw cycle-stepping rate: one warm
// machine, reset and re-run per iteration, reporting simulated cycles
// per second. This is the per-retire hot path (fetch through commit plus
// the trace digest) with no per-run build cost.
func BenchmarkMachineStep(b *testing.B) {
	prog, err := workloads.BuildMatmul(workloads.Base, 16)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := benchSession(workloads.Base, 16)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Stats.Cycles
		b.StopTimer()
		if err := sess.Reset(prog); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// benchMatmulRows runs every matmul variant at h harts end to end on a
// warm pool machine, one sub-benchmark per variant, reporting simulated
// cycles per second and host nanoseconds per simulated cycle.
func benchMatmulRows(b *testing.B, h int) {
	for _, v := range workloads.Variants {
		b.Run(string(v), func(b *testing.B) {
			prog, err := workloads.BuildMatmul(v, h)
			if err != nil {
				b.Fatal(err)
			}
			cfg := workloads.MatmulConfig(h)
			var pool sim.Pool
			var cycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess, err := pool.Get(sim.Spec{
					Program:   prog,
					Config:    &cfg,
					MaxCycles: workloads.MaxMatmulCycles(h),
					Trace:     sim.TraceSpec{Digest: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sess.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Stats.Cycles
				pool.Put(sess)
			}
			sec := b.Elapsed().Seconds()
			b.ReportMetric(float64(cycles)/sec, "cycles/s")
			b.ReportMetric(sec*1e9/float64(cycles), "ns/cycle")
		})
	}
}

// BenchmarkFigRow measures each fig-19 row (16 harts, 4 cores) — the
// same measurement the BENCH_fig19.json throughput field records.
func BenchmarkFigRow(b *testing.B) { benchMatmulRows(b, 16) }

// BenchmarkMatmul64 measures the five programs at 64 harts on 16 cores,
// all of them live: the shape of the sim_matmul64 benchmark workload,
// where stage selection among the harts is most of the cycle.
func BenchmarkMatmul64(b *testing.B) { benchMatmulRows(b, 64) }

// phaseBSource is the placed set/get program for h harts: every hart
// forks, sends and joins, so the fork wave allocates harts in phase B,
// with the cycle's later trace events held behind it, on every p_fn
// cycle.
func phaseBSource(h int) string {
	return fmt.Sprintf(`
#define H %d
#define CHUNK 16
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
`, h)
}

// BenchmarkPhaseBCommit measures the effects applied at their issue site
// (sends, joins, memory submissions) and phase B's fork allocations on a
// message-dense workload — the placed set/get program — at 64, 256 and
// 1024 cores. The
// number of live harts is about the same at every size (the fork wave
// is a few cores wide), so cycles/s and ns/cycle should be flat across
// the three: a curve that falls with the core count is per-cycle work
// proportional to the machine, not to its live harts.
func BenchmarkPhaseBCommit(b *testing.B) {
	for _, cores := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("%dc", cores), func(b *testing.B) {
			opt := cc.DefaultOptions()
			opt.Cores = cores
			opt.BankReserveBytes = 512
			asmText, err := cc.BuildProgram(phaseBSource(cores*lbp.HartsPerCore), opt)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := asm.Assemble(asmText, asm.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sess, err := sim.New(sim.Spec{
				Program:   prog,
				Cores:     cores,
				MaxCycles: 50_000_000,
				Trace:     sim.TraceSpec{Digest: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			var digest uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sess.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Stats.Cycles
				d := sess.Recorder().Digest()
				if digest == 0 {
					digest = d
				} else if d != digest {
					b.Fatalf("digest drifted: %#x != %#x", d, digest)
				}
				b.StopTimer()
				if err := sess.Reset(prog); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			sec := b.Elapsed().Seconds()
			b.ReportMetric(float64(cycles)/sec, "cycles/s")
			b.ReportMetric(sec*1e9/float64(cycles), "ns/cycle")
		})
	}
}

// sanity: the bench sessions run and produce a nonempty digest trace.
func TestBenchSessionRuns(t *testing.T) {
	sess, err := benchSession(workloads.Base, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles == 0 || res.Stats.Retired == 0 {
		t.Fatalf("empty run: %+v", res.Stats)
	}
	if sess.Recorder().Count() == 0 {
		t.Fatal("no trace events recorded")
	}
}
