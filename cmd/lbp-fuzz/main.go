// lbp-fuzz is the whole-program determinism fuzzer: it generates
// random MiniC + Deterministic OpenMP programs (internal/fuzzgen),
// compiles each one with internal/cc, runs it on simulated LBP
// machines across a {cores} × {fast-forward on, off} matrix, and
// requires every run to reproduce the Go reference evaluator's
// sequential result bit-for-bit — with all runs on one machine geometry
// sharing a single trace digest.
//
// Usage:
//
//	lbp-fuzz [-n 100] [-seed 1] [-maxcores 4] [-max CYCLES] [-crashdir DIR] [-v]
//
// Any divergence is minimized with the built-in shrinker and written
// to -crashdir as a <name>.c program plus a <name>.json reference
// expectation, ready to check in under testdata/fuzz/ where the
// corpus replay test picks it up. A failing campaign exits 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fuzzgen"
)

func main() {
	n := flag.Int("n", 100, "number of programs to generate and check")
	seed := flag.Int64("seed", 1, "master seed (each program derives its own sub-seed)")
	maxCores := flag.Int("maxcores", 4, "largest machine of the cores ladder {1,2,4,256}")
	maxCycles := flag.Uint64("max", 0, "cycle budget per run (0 = 20M)")
	crashdir := flag.String("crashdir", "testdata/fuzz", "directory receiving minimized failing programs")
	verbose := flag.Bool("v", false, "log every program, not just failures")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: lbp-fuzz [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *n <= 0 {
		fmt.Fprintf(os.Stderr, "lbp-fuzz: -n %d must be positive\n", *n)
		os.Exit(2)
	}
	if *maxCores < 1 {
		fmt.Fprintf(os.Stderr, "lbp-fuzz: -maxcores %d must be positive\n", *maxCores)
		os.Exit(2)
	}

	opt := fuzzgen.CheckOptions{
		MaxCycles: *maxCycles,
		MaxCores:  *maxCores,
	}
	failed := 0
	stats := fuzzgen.Campaign(*seed, *n, fuzzgen.GenConfig{}, opt,
		func(i int, p *fuzzgen.Prog, f *fuzzgen.Failure) {
			if f == nil {
				if *verbose {
					fmt.Fprintf(os.Stderr, "lbp-fuzz: #%d seed=%d ok\n", i, p.Seed)
				} else if (i+1)%25 == 0 {
					fmt.Fprintf(os.Stderr, "lbp-fuzz: %d programs checked\n", i+1)
				}
				return
			}
			failed++
			name := fmt.Sprintf("fuzz-%d-%d", *seed, i)
			fmt.Fprintf(os.Stderr, "lbp-fuzz: #%d seed=%d FAILED (%s): %s\n",
				i, p.Seed, f.Stage, f.Detail)
			if f.Prog != nil {
				if err := fuzzgen.WriteCorpus(*crashdir, name, f.Prog); err != nil {
					fmt.Fprintf(os.Stderr, "lbp-fuzz: writing %s: %v\n", name, err)
				} else {
					fmt.Fprintf(os.Stderr, "lbp-fuzz: minimized repro written to %s/%s.c\n",
						*crashdir, name)
				}
			}
			fmt.Fprintf(os.Stderr, "lbp-fuzz: minimized source:\n%s", f.Source)
		})
	fmt.Printf("lbp-fuzz: %d programs, %d runs, %d failures (seed %d)\n",
		stats.Programs, stats.Runs, len(stats.Failures), *seed)
	if len(stats.Failures) > 0 {
		os.Exit(1)
	}
}
