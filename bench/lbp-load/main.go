// lbp-load is the repository's cost ledger: five workloads over the
// simulator, the serving layer and the fleet, five gated end-to-end
// metrics plus a failure count, and a traced run that gives every
// layer its own number. Every layer is measured from outside, by
// bracketing calls into its exported functions; nothing under
// internal/ or cmd/ is instrumented.
//
// Usage:
//
//	lbp-load [-seed N] [-trace 0|1]                      all five workloads, one process each
//	lbp-load -workload W -seed N -seconds S -trace 0|1  one workload (the contract's form)
//	lbp-load -compare A.json B.json                      gate B against A
//	lbp-load -repin                                      rewrite bench/pins.json from this tree
//
// The last line of standard output of a one-workload run is the
// contract's JSON object; everything else is kept in bench/out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The smallest number of batches (serving) or passes (simulation) a
// run measures, however short its time. results_digest and
// stream_sha256 cover exactly the first minBatches batches, so they do
// not depend on how many more a fast host fits into the time. A pass
// takes seconds where a batch takes a fraction of one, hence fewer.
const (
	minBatches   = 8
	minSimPasses = 3
)

// runOpts is everything one workload run depends on.
type runOpts struct {
	root       string
	outDir     string
	workload   string
	seed       int64
	seconds    float64
	minBatches int
	trace      bool
	setups     int   // how many times the set-up runs; setup_s is their median
	pins       *pins // nil: nothing is compared against pins
	batch      int   // serving batch size override (tests); 0 = the workload's own
}

func (o runOpts) batchSize() int {
	switch {
	case o.batch > 0:
		return o.batch
	case o.workload == wServeHot:
		return hotBatch
	}
	return coldBatch
}

func (o runOpts) simPin(name string) (simPin, bool) {
	if o.pins == nil {
		return simPin{}, false
	}
	p, ok := o.pins.Sim[name]
	return p, ok
}

// resultsPin is the pinned results_digest. It exists for the pinned
// seed only; any other seed runs without it, on the sampled direct-run
// check alone.
func (o runOpts) resultsPin() (string, bool) {
	if o.pins == nil || o.seed != o.pins.Seed {
		return "", false
	}
	d, ok := o.pins.ResultsDigest[o.workload]
	return d, ok
}

func (o runOpts) newResult() *runResult {
	return &runResult{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Metrics: metricSet{}, Extra: metricSet{}, Spread: map[string]float64{}, Exact: map[string]string{},
	}
}

func isSim(workload string) bool { return workload == wSimMatmul || workload == wSimScale }

// runWorkload runs one workload in this process.
func runWorkload(o runOpts) (*runResult, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	var (
		r   *runResult
		err error
	)
	switch {
	case o.trace:
		r, err = runTraced(o)
	case isSim(o.workload):
		r, err = runSimWorkload(o)
	default:
		r, err = runServeWorkload(o)
	}
	if err != nil {
		return nil, err
	}
	if !o.trace {
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		r.Metrics.put("peak_rss_mb", rss, "MiB")
	}
	return r, nil
}

// contractLine is the JSON object the contract wants last on stdout.
func contractLine(r *runResult) string {
	b, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func printResult(w io.Writer, spec *benchSpec, r *runResult) {
	shape := fmt.Sprintf("%d batches of %d", r.Batches, r.BatchSize)
	if r.Trace {
		shape = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  attempted %d ok %d failed %d  failed_share %.4g\n",
		r.Workload, r.Seed, shape, r.Attempted, r.OK, r.Failed, r.failedShare())
	bounds := map[string]metricSpec{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m
	}
	for _, name := range r.Metrics.names() {
		m := r.Metrics[name]
		fmt.Fprintf(w, "   %-34s %14.6g %-8s", name, m.Value, m.Unit)
		if s, ok := r.Spread[name]; ok {
			fmt.Fprintf(w, " spread %5.1f%%", 100*s)
		}
		if b, ok := bounds[name]; ok {
			fmt.Fprintf(w, "  (%s is better, bound %g)", b.Better, b.Bound)
		}
		fmt.Fprintln(w)
	}
	for _, name := range r.Extra.names() {
		m := r.Extra[name]
		fmt.Fprintf(w, "   %-34s %14.6g %-8s  (not gated)\n", name, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(r.Exact) {
		fmt.Fprintf(w, "   exact %-22s %s\n", k, r.Exact[k])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func outName(workload string, trace bool) string {
	if trace {
		return "layers_" + workload + ".json"
	}
	return "run_" + workload + ".json"
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lbp-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload, in this process")
	seed := fs.Int64("seed", 1, "drives the cold fuzzgen seeds, serve_hot's picks, every shuffle and the replay sample")
	seconds := fs.Float64("seconds", 0, "how long a run measures (0 = run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics and span files")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	repin := fs.Bool("repin", false, "measure this tree and rewrite bench/pins.json")
	noPins := fs.Bool("nopins", false, "do not compare against bench/pins.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "lbp-load:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: lbp-load -compare A.json B.json")
			return 2
		}
		return compareSets(stdout, stderr, spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "usage: lbp-load [-workload W] [-seed N] [-seconds S] [-trace 0|1]")
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	o := runOpts{
		root: root, outDir: filepath.Join(root, "bench", "out"),
		workload: *workload, seed: *seed, seconds: *seconds, minBatches: minBatches, trace: *trace == 1,
		setups: setupRepeats,
	}
	if isSim(o.workload) {
		o.minBatches = minSimPasses
	}
	if !*noPins && !*repin {
		if o.pins, err = loadPins(root); err != nil {
			return fail(err)
		}
	}
	if *repin {
		if err := rewritePins(o, spec, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	if *workload == "" {
		return runAll(o, spec, stdout, stderr)
	}
	if !spec.hasWorkload(*workload) {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}

	r, err := runWorkload(o)
	if err != nil {
		return fail(err)
	}
	declared := spec.EndToEnd
	if o.trace {
		declared = spec.PerLayer
	}
	if err := writeJSON(filepath.Join(o.outDir, outName(o.workload, o.trace)), r); err != nil {
		return fail(err)
	}
	printResult(stdout, spec, r)
	if r.Failed == 0 && r.Attempted > 0 {
		if err := r.Metrics.check(declared); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintln(stdout, contractLine(r))
	return exitCode(r)
}

// exitCode is non-zero on any correctness failure.
func exitCode(r *runResult) int {
	if r.Failed != 0 || r.Attempted == 0 {
		return 1
	}
	return 0
}

// runChildren runs every workload in a fresh process of this binary
// (fresh heap, so peak_rss_mb and collector state are per workload and
// independent of order) and gathers what each wrote to bench/out.
func runChildren(o runOpts, spec *benchSpec, stdout, stderr io.Writer, extra ...string) (*resultSet, bool) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "lbp-load:", err)
		return nil, false
	}
	set := &resultSet{Schema: resultSchema, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Env: readEnv(), Workloads: map[string]*runResult{}}
	if out, err := exec.Command("git", "-C", o.root, "rev-parse", "HEAD").Output(); err == nil {
		set.Env.Commit = strings.TrimSpace(string(out))
	}
	if set.Env.Noisy {
		fmt.Fprintf(stdout, "WARNING: 1-minute load (%s) exceeds nproc=%d: host-time numbers are noisy\n", set.Env.LoadAvg, set.Env.NProc)
	}
	ok := true
	traceArg := "0"
	if o.trace {
		traceArg = "1"
	}
	for _, w := range spec.Workloads {
		args := append([]string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", traceArg}, extra...)
		cmd := exec.Command(exe, args...)
		cmd.Dir = o.root
		cmd.Stdout, cmd.Stderr = stdout, stderr
		path := filepath.Join(o.outDir, outName(w.Name, o.trace))
		_ = os.Remove(path) // a stale file must not stand in for a run that died
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "lbp-load: %s: %v\n", w.Name, err)
			ok = false
		}
		var r runResult
		if err := readJSON(path, &r); err != nil {
			fmt.Fprintf(stderr, "lbp-load: %s: %v\n", w.Name, err)
			ok = false
			continue
		}
		set.Workloads[w.Name] = &r
	}
	return set, ok
}

// runAll is the one command: all five workloads, every metric by name
// with its unit, every output checked, bench/out/results.json written,
// non-zero on any correctness failure.
func runAll(o runOpts, spec *benchSpec, stdout, stderr io.Writer) int {
	set, ok := runChildren(o, spec, stdout, stderr)
	if set == nil {
		return 1
	}
	cold, fleet := set.Workloads[wServeCold], set.Workloads[wFleetCold]
	if !o.trace && cold != nil && fleet != nil {
		if a, b := cold.Exact["results_digest"], fleet.Exact["results_digest"]; a != b {
			fmt.Fprintf(stderr, "lbp-load: serve_cold results_digest %s != fleet_cold %s: the fleet changed a result\n", a, b)
			ok = false
		} else {
			fmt.Fprintf(stdout, "serve_cold and fleet_cold agree on results_digest %s\n", a)
		}
	}
	name := "results.json"
	if o.trace {
		name = "layers.json"
	}
	if err := writeJSON(filepath.Join(o.outDir, name), set); err != nil {
		fmt.Fprintln(stderr, "lbp-load:", err)
		return 1
	}
	if !o.trace {
		printPaperComparison(stdout, set)
	}
	fmt.Fprintf(stdout, "wrote %s\n", filepath.Join("bench", "out", name))
	if !ok {
		return 1
	}
	return 0
}

// printPaperComparison prints the one paper claim the workloads cover.
// Host-time numbers have no external reference at all.
func printPaperComparison(w io.Writer, set *resultSet) {
	m := set.Workloads[wSimMatmul]
	if m == nil {
		return
	}
	base, errBase := parsePin(m.Exact["sim.base"])
	cp, errCopy := parsePin(m.Exact["sim.copy"])
	if errBase != nil || errCopy != nil || cp.Cycles == 0 {
		return
	}
	fmt.Fprintf(w, "paper comparison (Figure 20, 16 cores): copy is %.3fx faster than base in simulated cycles (%d / %d); the paper reports 1.16x (EXPERIMENTS.md).\n",
		float64(base.Cycles)/float64(cp.Cycles), base.Cycles, cp.Cycles)
	fmt.Fprintln(w, "host-time numbers (everything in s, ms, 1/s, MiB) have no external reference: they compare commits on one host, nothing else.")
}

// rewritePins measures this tree with pins off and writes what it saw
// to bench/pins.json, including the Profile-run live-hart-cycle counts
// the traced run divides by.
func rewritePins(o runOpts, spec *benchSpec, stdout, stderr io.Writer) error {
	set, ok := runChildren(o, spec, stdout, stderr, "-nopins")
	if set == nil || !ok {
		return fmt.Errorf("-repin: a workload failed; pins not written")
	}
	p := &pins{Seed: o.seed, Sim: map[string]simPin{}, ResultsDigest: map[string]string{}}
	for name, r := range set.Workloads {
		if d, ok := r.Exact["results_digest"]; ok {
			p.ResultsDigest[name] = d
		}
		for k, v := range r.Exact {
			if prog, ok := strings.CutPrefix(k, "sim."); ok {
				pin, err := parsePin(v)
				if err != nil {
					return fmt.Errorf("-repin: %s: %w", k, err)
				}
				p.Sim[prog] = pin
			}
		}
	}
	if err := pinLiveHartCycles(p, stdout); err != nil {
		return err
	}
	return writeJSON(filepath.Join(o.root, "bench", "pins.json"), p)
}
