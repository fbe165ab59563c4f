// lbp-run executes a program on a simulated LBP machine and reports the
// run statistics. It accepts MiniC sources (.c), assembly (.s) or
// serialized images (.img); the format is chosen by extension.
//
// Usage:
//
//	lbp-run [-cores N] [-max CYCLES] [-bank BYTES] [-digest] [-tail N] [-percore] [-stats] [-chrome FILE] [-checkpoint FILE -every N] file.{c,s,img}
//	lbp-run -resume FILE [-max CYCLES] [flags]
//
// -stats enables the deterministic performance counters and prints a
// cycle-attribution report after the run: where every hart-cycle went
// (commit or a named stall cause), the retired-instruction mix, pipeline
// stage occupancy, per-link-class wait cycles and local/remote memory
// latency histograms. Profiling never changes the run itself — cycle
// counts and digests are identical with and without -stats.
//
// -chrome FILE exports the retained trace events (see -tail; a default
// ring is kept if -tail is 0) as Chrome trace-event JSON for
// chrome://tracing or Perfetto, with hart lifetimes shown as spans.
//
// -checkpoint FILE -every N pauses the run every N cycles and rewrites
// FILE with the machine's complete serialized state. -resume FILE picks
// such a run back up (no program argument: the program lives inside the
// checkpoint) and reproduces the uninterrupted run bit-exactly — same
// halt, stats, digest and trace. -max is always the absolute cycle
// budget; a resumed run counts the cycles already simulated against it.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cc"
	"repro/internal/lbp"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	cores := flag.Int("cores", 4, "number of LBP cores")
	max := flag.Uint64("max", 100_000_000, "cycle budget")
	bank := flag.Uint("bank", 1<<16, "shared bank size in bytes (power of two)")
	digest := flag.Bool("digest", false, "print the deterministic event-trace digest")
	perCore := flag.Bool("percore", false, "print per-core retired instructions and IPC")
	tail := flag.Int("tail", 0, "print the last N trace events")
	stats := flag.Bool("stats", false, "enable performance counters and print the cycle-attribution report")
	chrome := flag.String("chrome", "", "write the retained trace events as Chrome trace-event JSON to `file`")
	ckptFile := flag.String("checkpoint", "", "rewrite `file` with the serialized machine state every -every cycles")
	every := flag.Uint64("every", 0, "checkpoint interval in cycles (requires -checkpoint)")
	resume := flag.String("resume", "", "resume a run from checkpoint `file` instead of loading a program")
	flag.Parse()
	if err := lbp.ValidateGeometry(*cores, 0); err != nil {
		fmt.Fprintf(os.Stderr, "lbp-run: -cores: %v\n", err)
		os.Exit(2)
	}
	if *tail < 0 || *tail > sim.MaxTraceRing {
		fmt.Fprintf(os.Stderr, "lbp-run: -tail %d must not be negative or above %d\n", *tail, sim.MaxTraceRing)
		os.Exit(2)
	}
	if (*ckptFile == "") != (*every == 0) {
		fmt.Fprintln(os.Stderr, "lbp-run: -checkpoint FILE and -every N (positive) must be used together")
		os.Exit(2)
	}

	var sess *sim.Session
	if *resume != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "lbp-run: -resume takes no program argument (the checkpoint carries the program)")
			os.Exit(2)
		}
		data, err := os.ReadFile(*resume)
		if err != nil {
			fatal(err)
		}
		sess, err = sim.Resume(data, sim.ResumeSpec{MaxCycles: *max})
		if err != nil {
			fatal(err)
		}
		// Observers travel inside the checkpoint; flags can only report
		// what the original run recorded.
		if (*digest || *tail > 0 || *chrome != "") && sess.Recorder() == nil {
			fatal(fmt.Errorf("checkpoint %s has no trace recorder; rerun the original with -digest or -tail", *resume))
		}
		// A digest-only recorder folds events but retains none: -chrome
		// would silently write an empty or truncated timeline.
		if *chrome != "" && sess.Recorder().RingSize() == 0 {
			fatal(fmt.Errorf("checkpoint %s retained no trace ring; rerun the original with -tail N to keep events for -chrome", *resume))
		}
		if *stats && sess.PerfSnapshot() == nil {
			fatal(fmt.Errorf("checkpoint %s was not profiled; rerun the original with -stats", *resume))
		}
	} else {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: lbp-run [flags] file.{c,s,img}")
			flag.PrintDefaults()
			os.Exit(2)
		}
		// The same answer lbp-cc and lbp-serve give: sim.LoadFile compiles
		// a .c file with the compiler's default reserve.
		if err := cc.CheckBank(uint64(*bank), uint64(cc.DefaultOptions().BankReserveBytes)); err != nil {
			fmt.Fprintf(os.Stderr, "lbp-run: -bank: %v\n", err)
			os.Exit(2)
		}
		prog, err := sim.LoadFile(flag.Arg(0), *cores, uint32(*bank))
		if err != nil {
			fatal(err)
		}
		ring := *tail
		if *chrome != "" && ring < 1<<16 {
			ring = 1 << 16 // keep enough events for a useful timeline
		}
		sess, err = sim.New(sim.Spec{
			Program:         prog,
			Cores:           *cores,
			SharedBankBytes: uint32(*bank),
			MaxCycles:       *max,
			Trace:           sim.TraceSpec{Digest: *digest, Ring: ring},
			Profile:         *stats,
		})
		if err != nil {
			fatal(err)
		}
	}

	var res *lbp.Result
	var err error
	if *ckptFile != "" {
		// Overwrite the file at every -every boundary the run pauses on:
		// not where it starts, not where the budget ends it.
		start := sess.Machine().Cycle()
		res, err = sess.RunSliced(*every, func(cycle uint64) error {
			if cycle == start || cycle >= sess.MaxCycles() {
				return nil
			}
			cp, err := sess.Checkpoint()
			if err != nil {
				return err
			}
			return os.WriteFile(*ckptFile, cp, 0o644)
		})
	} else {
		res, err = sess.Run()
	}
	if err != nil {
		fatal(err)
	}
	report(sess, res, *perCore, *stats, *digest, *tail, *chrome)
}

// report prints the run summary and the requested observer output.
func report(sess *sim.Session, res *lbp.Result, perCore, stats, digest bool, tail int, chrome string) {
	cores := sess.Config().Cores
	st := res.Stats
	fmt.Printf("halt:     %s\n", res.Halt)
	fmt.Printf("cycles:   %d\n", st.Cycles)
	fmt.Printf("retired:  %d\n", st.Retired)
	fmt.Printf("IPC:      %.2f (peak %d)\n", st.IPC(), cores)
	fmt.Printf("forks:    %d  joins: %d  signals: %d  sends: %d\n",
		st.Forks, st.Joins, st.Signals, st.RemoteSends)
	fmt.Printf("memory:   local=%d shared-local=%d shared-remote=%d cv=%d\n",
		res.Mem.LocalAccesses, res.Mem.SharedLocal, res.Mem.SharedRemote, res.Mem.CVWrites)
	busy := 0
	for _, r := range st.PerHart {
		if r > 0 {
			busy++
		}
	}
	fmt.Printf("harts:    %d of %d retired instructions\n", busy, len(st.PerHart))
	if perCore {
		hpc := lbp.HartsPerCore
		for c := 0; c < cores; c++ {
			var sum uint64
			for h := 0; h < hpc; h++ {
				sum += st.PerHart[hpc*c+h]
			}
			fmt.Printf("core %2d:  retired=%d ipc=%.2f (harts %v)\n",
				c, sum, float64(sum)/float64(st.Cycles),
				st.PerHart[hpc*c:hpc*(c+1)])
		}
	}
	if stats {
		fmt.Print(sess.PerfSnapshot().Format())
	}
	rec := sess.Recorder()
	if rec != nil {
		if digest {
			fmt.Printf("digest:   %#x over %d events\n", rec.Digest(), rec.Count())
		}
		for _, e := range rec.Last(tail) {
			fmt.Println(e)
		}
	}
	if chrome != "" {
		if err := exportChrome(chrome, rec); err != nil {
			fatal(err)
		}
		fmt.Printf("chrome:   trace written to %s\n", chrome)
	}
}

// exportChrome writes the recorder's ring to path, reporting write and
// close errors (a full disk must not pass silently).
func exportChrome(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := rec.WriteChrome(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbp-run:", err)
	os.Exit(1)
}
