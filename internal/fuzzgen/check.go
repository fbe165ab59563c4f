package fuzzgen

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/sim"
)

// The differential checker: one program, one reference result, a
// matrix of machine geometries and fast-forward settings. Fast-forward
// must never change anything; machine geometry (cores) may change
// timing — and therefore the trace digest — but never a computed value.

// maxCycles bounds every run.
const maxCycles = 20_000_000

// coresLadder lists the machine sizes a program is checked on: every
// entry of {1,2,4,256} from minCores up to maxCores. The 256-core rung
// runs the same programs through a three-level router hierarchy
// (degree 4), where a divergence would implicate the generalized tree
// rather than the program.
func coresLadder(minCores, maxCores int) []int {
	var out []int
	for _, c := range []int{1, 2, 4, 256} {
		if c >= minCores && c <= maxCores {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = []int{minCores}
	}
	return out
}

// Failure describes one divergence.
type Failure struct {
	Source string
	Stage  string // compile | assemble | run | value | digest
	Detail string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("%s: %s\nsource:\n%s", f.Stage, f.Detail, f.Source)
}

// Check renders, compiles and differentially runs one generated
// program on the cores ladder up to maxCores, each machine with
// fast-forward on and off. It returns the number of simulated runs and
// the first divergence found (nil if all runs agree with the reference).
func Check(p *Prog, maxCores int) (int, *Failure) {
	return CheckSource(p.Render(), p.MinCores, p.Eval(), maxCores)
}

// CheckSource compiles MiniC source and checks every matrix cell
// against the expected final memory image. Only globals named in
// expect are compared.
func CheckSource(src string, minCores int, expect State, maxCores int) (int, *Failure) {
	fail := func(stage, format string, args ...any) *Failure {
		return &Failure{Source: src, Stage: stage, Detail: fmt.Sprintf(format, args...)}
	}
	ccOpt := cc.DefaultOptions()
	ccOpt.Cores = minCores
	prog, err := cc.Build(src, ccOpt)
	if err != nil {
		stage := "compile"
		var asmErr *asm.Error
		if errors.As(err, &asmErr) {
			stage = "assemble"
		}
		return 0, fail(stage, "%v", err)
	}
	runs := 0
	for _, cores := range coresLadder(minCores, maxCores) {
		// Both fast-forward settings on one machine geometry must
		// produce one digest; only the geometry may change timing.
		var wantDig uint64
		var wantCfg string
		for _, ffwd := range []bool{true, false} {
			cfg := fmt.Sprintf("cores=%d ffwd=%v", cores, ffwd)
			sess, err := sim.New(sim.Spec{
				Program:   prog,
				Cores:     cores,
				MaxCycles: maxCycles,
				Trace:     sim.TraceSpec{Digest: true},
			})
			if err != nil {
				return runs, fail("run", "%s: %v", cfg, err)
			}
			sess.Machine().SetFastForward(ffwd)
			res, err := sess.Run()
			if err != nil {
				return runs, fail("run", "%s: %v", cfg, err)
			}
			runs++
			if res.Halt != "exit" {
				return runs, fail("run", "%s: halt %q after %d cycles",
					cfg, res.Halt, res.Stats.Cycles)
			}
			if d := compareState(sess, prog.Symbols, expect); d != "" {
				return runs, fail("value", "%s: %s", cfg, d)
			}
			dig := sess.Recorder().Digest()
			if wantCfg == "" {
				wantDig, wantCfg = dig, cfg
			} else if dig != wantDig {
				return runs, fail("digest",
					"%s: digest %#x differs from %#x of %s", cfg, dig, wantDig, wantCfg)
			}
		}
	}
	return runs, nil
}

// compareState reads every expected global back from shared memory and
// diffs it against the reference evaluator's final state.
func compareState(sess *sim.Session, symbols map[string]uint32, expect State) string {
	var diffs []string
	for name, want := range expect {
		addr, ok := symbols[name]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("global %q missing from the symbol table", name))
			continue
		}
		got, ok := sess.Machine().ReadSharedSlice(addr, len(want))
		if !ok {
			diffs = append(diffs, fmt.Sprintf("global %q unreadable at %#x", name, addr))
			continue
		}
		for i, w := range want {
			if int32(got[i]) != w {
				loc := name
				if len(want) > 1 {
					loc = fmt.Sprintf("%s[%d]", name, i)
				}
				diffs = append(diffs, fmt.Sprintf("%s = %d, reference %d", loc, int32(got[i]), w))
			}
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	if len(diffs) > 8 {
		diffs = append(diffs[:8], fmt.Sprintf("... and %d more", len(diffs)-8))
	}
	return strings.Join(diffs, "; ")
}
