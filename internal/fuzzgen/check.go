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
// matrix of machine geometries and fast-forward settings. The host
// knob (-ffwd) must never change anything; machine geometry
// (cores) may change timing — and therefore the trace digest — but
// never a computed value.

// CheckOptions configures the execution matrix.
type CheckOptions struct {
	// MaxCycles bounds every run (0 = 20M).
	MaxCycles uint64
	// FFwd are the fast-forward settings (nil = {true, false}).
	FFwd []bool
	// MaxCores caps the cores ladder {1,2,4,256} (0 = 4). Programs run
	// on every ladder entry >= their MinCores. The default cap keeps
	// smoke campaigns fast; raising it to 256 adds a deep-router-tree
	// geometry to every check.
	MaxCores int
}

func (o CheckOptions) withDefaults() CheckOptions {
	if o.MaxCycles == 0 {
		o.MaxCycles = 20_000_000
	}
	if o.FFwd == nil {
		o.FFwd = []bool{true, false}
	}
	if o.MaxCores == 0 {
		o.MaxCores = 4
	}
	return o
}

// coresLadder lists the machine sizes a program is checked on. The
// 256-core rung runs the same programs through a three-level router
// hierarchy (degree 4), where a divergence would implicate the
// generalized tree rather than the program.
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
	Prog   *Prog // nil when replaying a source file
	Source string
	Stage  string // compile | assemble | run | value | digest
	Detail string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("%s: %s\nsource:\n%s", f.Stage, f.Detail, f.Source)
}

// Check renders, compiles and differentially runs one generated
// program. It returns the number of simulated runs and the first
// divergence found (nil if all runs agree with the reference).
func Check(p *Prog, opt CheckOptions) (int, *Failure) {
	runs, f := CheckSource(p.Render(), p.MinCores, p.Eval(), opt)
	if f != nil {
		f.Prog = p
	}
	return runs, f
}

// CheckSource compiles MiniC source and checks every matrix cell
// against the expected final memory image. Only globals named in
// expect are compared.
func CheckSource(src string, minCores int, expect State, opt CheckOptions) (int, *Failure) {
	opt = opt.withDefaults()
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
	for _, cores := range coresLadder(minCores, opt.MaxCores) {
		// Both fast-forward settings on one machine geometry must
		// produce one digest; only the geometry may change timing.
		var wantDig uint64
		var wantCfg string
		for _, ffwd := range opt.FFwd {
			cfg := fmt.Sprintf("cores=%d ffwd=%v", cores, ffwd)
			sess, err := sim.New(sim.Spec{
				Program:       prog,
				Cores:         cores,
				MaxCycles:     opt.MaxCycles,
				Trace:         sim.TraceSpec{Digest: true},
				NoFastForward: !ffwd,
			})
			if err != nil {
				return runs, fail("run", "%s: %v", cfg, err)
			}
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

// ---- campaigns ------------------------------------------------------------

// CampaignStats summarizes one fuzzing campaign.
type CampaignStats struct {
	Programs int
	Runs     int
	Failures []*Failure
}

// Campaign generates and checks n programs. The master seed derives
// one sub-seed per program, so any failing program is reproducible
// from its own Prog.Seed alone. report, when non-nil, is called after
// every program (f is nil for a pass). Failing programs are minimized
// with Shrink before being recorded.
func Campaign(seed int64, n int, gcfg GenConfig, opt CheckOptions,
	report func(i int, p *Prog, f *Failure)) CampaignStats {
	seeds := subSeeds(seed, n)
	var st CampaignStats
	for i := 0; i < n; i++ {
		p := Generate(seeds[i], gcfg)
		runs, f := Check(p, opt)
		st.Programs++
		st.Runs += runs
		if f != nil {
			min := Shrink(p, func(q *Prog) bool {
				_, qf := Check(q, opt)
				return qf != nil
			}, 300)
			if _, mf := Check(min, opt); mf != nil {
				f = mf
			}
		}
		if f != nil {
			st.Failures = append(st.Failures, f)
		}
		if report != nil {
			report(i, p, f)
		}
	}
	return st
}

// subSeeds expands one master seed into n independent program seeds.
func subSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	s := uint64(seed)
	for i := range out {
		// splitmix64: decorrelates adjacent master seeds.
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		out[i] = int64((z ^ (z >> 31)) &^ (1 << 63))
	}
	return out
}
