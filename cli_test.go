package repro_test

// End-to-end tests of the command-line tools: each binary is built with
// `go build` into a temp dir and driven on the sample programs in
// testdata/.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildTool compiles one cmd into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds four binaries")
	}
	dir := t.TempDir()
	lbpcc := buildTool(t, dir, "lbp-cc")
	lbpasm := buildTool(t, dir, "lbp-asm")
	lbprun := buildTool(t, dir, "lbp-run")

	// lbp-cc: MiniC -> assembly
	asmPath := filepath.Join(dir, "vecsum.s")
	runTool(t, lbpcc, "-o", asmPath, "-cores", "2", "testdata/vecsum.c")
	asmText, err := os.ReadFile(asmPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(asmText), "LBP_parallel_start") {
		t.Error("compiled output must embed the detomp runtime")
	}

	// lbp-asm: assembly -> image, plus a listing
	imgPath := filepath.Join(dir, "vecsum.img")
	runTool(t, lbpasm, "-o", imgPath, asmPath)
	listing := runTool(t, lbpasm, "-list", asmPath)
	if !strings.Contains(listing, "p_fc") || !strings.Contains(listing, "main") {
		t.Errorf("listing:\n%.400s", listing)
	}

	// lbp-run on all three input forms
	for _, input := range []string{"testdata/vecsum.c", asmPath, imgPath} {
		out := runTool(t, lbprun, "-cores", "2", "-digest", input)
		if !strings.Contains(out, "halt:     exit") {
			t.Errorf("%s: %s", input, out)
		}
		if !strings.Contains(out, "forks:    7") {
			t.Errorf("%s must fork 7 team members:\n%s", input, out)
		}
		if !strings.Contains(out, "digest:") {
			t.Errorf("%s: digest missing:\n%s", input, out)
		}
	}

	// the digest is identical across runs and input forms
	d1 := digestLine(t, runTool(t, lbprun, "-cores", "2", "-digest", asmPath))
	d2 := digestLine(t, runTool(t, lbprun, "-cores", "2", "-digest", imgPath))
	if d1 != d2 {
		t.Errorf("digests differ across input forms: %s vs %s", d1, d2)
	}

	// plain assembly program
	out := runTool(t, lbprun, "-cores", "1", "testdata/hello.s")
	if !strings.Contains(out, "halt:     exit") {
		t.Errorf("hello.s: %s", out)
	}
}

func digestLine(t *testing.T, out string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "digest:") {
			return l
		}
	}
	t.Fatalf("no digest in:\n%s", out)
	return ""
}

func TestCLIBenchQuickFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bench := buildTool(t, dir, "lbp-bench")
	// -outdir: the default (.) would overwrite the tracked root record.
	out := runTool(t, bench, "-fig", "19", "-outdir", dir)
	for _, want := range []string{"Figure 19", "base", "tiled", "fastest"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	out = runTool(t, bench, "-fig", "locality")
	if !strings.Contains(out, "true") {
		t.Errorf("locality output:\n%s", out)
	}
}

// TestCLIBenchUnknownFig: a typo'd -fig must not silently run nothing and
// exit 0; it lists the valid experiments and exits 2.
func TestCLIBenchUnknownFig(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bench := buildTool(t, dir, "lbp-bench")
	out, err := exec.Command(bench, "-fig", "99").CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("-fig 99: err = %v, want exit code 2\n%s", err, out)
	}
	for _, want := range []string{"unknown -fig", "19", "response", "locality"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("error message missing %q:\n%s", want, out)
		}
	}
}

// TestCLIBenchParallelIdentical: the same figure run sequentially and on a
// worker pool must emit byte-identical records (digests included), on
// stdout under -json and in BENCH_fig19.json — and both are the tracked
// record: nothing in a record depends on the host.
func TestCLIBenchParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bench := buildTool(t, dir, "lbp-bench")
	tracked, err := os.ReadFile("BENCH_fig19.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []string{"1", "0"} {
		cmd := exec.Command(bench, "-fig", "19", "-json", "-parallel", par, "-outdir", dir)
		cmd.Stderr = nil
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("-parallel %s: %v", par, err)
		}
		file, err := os.ReadFile(filepath.Join(dir, "BENCH_fig19.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout, tracked) || !bytes.Equal(file, tracked) {
			t.Errorf("-parallel %s: record differs from the tracked BENCH_fig19.json:\nstdout:\n%s\nfile:\n%s",
				par, stdout, file)
		}
	}
}

// TestCLIRunStats: -stats prints the cycle-attribution report and
// -chrome leaves a loadable trace-event JSON behind, without changing
// the run (same digest as a plain run).
func TestCLIRunStats(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	lbprun := buildTool(t, dir, "lbp-run")
	chromePath := filepath.Join(dir, "trace.json")
	out := runTool(t, lbprun, "-cores", "2", "-digest", "-stats", "-chrome", chromePath, "testdata/vecsum.c")
	for _, want := range []string{
		"cycle attribution", "commit", "hart-free", "retired by class",
		"stage occupancy", "link wait cycles", "memory latency",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output missing %q:\n%s", want, out)
		}
	}
	if digestLine(t, out) != digestLine(t, runTool(t, lbprun, "-cores", "2", "-digest", "testdata/vecsum.c")) {
		t.Error("-stats changed the event-trace digest")
	}
	data, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-chrome output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("-chrome trace is empty")
	}
}

// TestCLIBenchPhasesValidation: a non-positive -phases is a usage error
// (exit 2) before any simulation runs — pre-validation it would produce
// a response report with a wrapped-around jitter of ~1.8e19 cycles.
func TestCLIBenchPhasesValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bench := buildTool(t, dir, "lbp-bench")
	for _, bad := range []string{"0", "-5"} {
		out, err := exec.Command(bench, "-fig", "response", "-phases", bad).CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Errorf("-phases %s: err = %v, want exit code 2\n%s", bad, err, out)
		}
		if !strings.Contains(string(out), "must be positive") {
			t.Errorf("-phases %s error message: %s", bad, out)
		}
	}
	out := runTool(t, bench, "-fig", "response", "-phases", "4")
	if !strings.Contains(out, "phases: 4") {
		t.Errorf("-phases 4 output:\n%s", out)
	}
}

// TestCLIBenchProfileRecord: -profile embeds the counter snapshot — with
// per-stall-cause cycles and per-link-class waits — in BENCH_fig19.json.
func TestCLIBenchProfileRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bench := buildTool(t, dir, "lbp-bench")
	cmd := exec.Command(bench, "-fig", "19", "-json", "-profile", "-outdir", dir)
	cmd.Stderr = nil
	if _, err := cmd.Output(); err != nil {
		t.Fatalf("-profile run: %v", err)
	}
	var rec struct {
		Profile bool `json:"profile"`
		Rows    []struct {
			Variant string `json:"Variant"`
			Perf    *struct {
				HartCycles   uint64 `json:"hartCycles"`
				CommitCycles uint64 `json:"commitCycles"`
				Stalls       []struct {
					Name  string `json:"name"`
					Value uint64 `json:"value"`
				} `json:"stallCycles"`
				LinkWait []struct {
					Name  string `json:"name"`
					Value uint64 `json:"value"`
				} `json:"linkWaitCycles"`
			} `json:"Perf"`
		} `json:"rows"`
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_fig19.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.Profile || len(rec.Rows) != 5 {
		t.Fatalf("record: profile=%v rows=%d", rec.Profile, len(rec.Rows))
	}
	for _, r := range rec.Rows {
		if r.Perf == nil {
			t.Fatalf("row %s: no perf snapshot", r.Variant)
		}
		var stalls, waits uint64
		for _, s := range r.Perf.Stalls {
			stalls += s.Value
		}
		for _, w := range r.Perf.LinkWait {
			waits += w.Value
		}
		if r.Perf.CommitCycles+stalls != r.Perf.HartCycles {
			t.Errorf("row %s: attribution not exact: %d + %d != %d",
				r.Variant, r.Perf.CommitCycles, stalls, r.Perf.HartCycles)
		}
		if waits == 0 {
			t.Errorf("row %s: no link-wait cycles recorded", r.Variant)
		}
	}
}

// TestCLIRunBankValidation: -bank promises a power of two; reject the
// rest — and, like lbp-cc and POST /jobs (cc.CheckBank is the one
// answer), a bank the compiler's reserve does not fit in: -bank 1024
// used to run here while the other two refused it.
func TestCLIRunBankValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	lbprun := buildTool(t, dir, "lbp-run")
	for _, bad := range []string{"12345", "0", "4294967296", "1024"} {
		out, err := exec.Command(lbprun, "-bank", bad, "testdata/vecsum.c").CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Errorf("-bank %s: err = %v, want exit code 2\n%s", bad, err, out)
		}
	}
	// a valid power of two still runs
	out := runTool(t, lbprun, "-cores", "1", "-bank", "32768", "testdata/hello.s")
	if !strings.Contains(out, "halt:     exit") {
		t.Errorf("valid -bank run: %s", out)
	}
}

// TestCLIRunWorkersValidation: -simworkers is gone with the sharded
// stepper, so it is an unknown flag (exit 2) whatever its value; a
// negative -tail is still a usage error (exit 2) with a message naming
// the bad value, matching the -bank validation; valid values still run.
func TestCLIRunWorkersValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	lbprun := buildTool(t, dir, "lbp-run")
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-simworkers", "2", "testdata/hello.s"}, "flag provided but not defined: -simworkers"},
		{[]string{"-tail", "-3", "testdata/hello.s"}, "must not be negative"},
		// sim.MaxTraceRing + 1: the ring is allocated up front (a -tail of
		// 1<<40 used to end the process in the allocator).
		{[]string{"-tail", "1048577", "testdata/hello.s"}, "above 1048576"},
	} {
		out, err := exec.Command(lbprun, tc.args...).CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit code 2\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.msg) {
			t.Errorf("%v error message: %s", tc.args, out)
		}
	}
	out := runTool(t, lbprun, "-cores", "1", "-tail", "0", "testdata/hello.s")
	if !strings.Contains(out, "halt:     exit") {
		t.Errorf("valid -tail run: %s", out)
	}
}

// TestCLICoresValidation: every entry point bounds the machine geometry
// to [1, 1024] cores. lbp-run and lbp-cc reject out-of-range -cores as a
// usage error (exit 2) naming the bound; in-range values still run.
func TestCLICoresValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	lbprun := buildTool(t, dir, "lbp-run")
	lbpcc := buildTool(t, dir, "lbp-cc")
	for _, tc := range []struct {
		bin  string
		args []string
	}{
		{lbprun, []string{"-cores", "0", "testdata/hello.s"}},
		{lbprun, []string{"-cores", "-3", "testdata/hello.s"}},
		{lbprun, []string{"-cores", "1025", "testdata/hello.s"}},
		{lbpcc, []string{"-cores", "-1", "testdata/vecsum.c"}},
		{lbpcc, []string{"-cores", "2000", "testdata/vecsum.c"}},
	} {
		out, err := exec.Command(tc.bin, tc.args...).CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Errorf("%s %v: err = %v, want exit code 2\n%s", filepath.Base(tc.bin), tc.args, err, out)
		}
		if !strings.Contains(string(out), "[1, 1024]") {
			t.Errorf("%s %v error message must name the bound: %s", filepath.Base(tc.bin), tc.args, out)
		}
	}
	// The boundary geometries themselves are accepted: 1 core runs, and
	// 1024 cores build (lbp-cc only places banks, so it stays cheap).
	out := runTool(t, lbprun, "-cores", "1", "testdata/hello.s")
	if !strings.Contains(out, "halt:     exit") {
		t.Errorf("-cores 1 run: %s", out)
	}
	cc := runTool(t, lbpcc, "-cores", "1024", "testdata/vecsum.c")
	if !strings.Contains(cc, "LBP_parallel_start") {
		t.Errorf("-cores 1024 compile: %.300s", cc)
	}
}

// TestCLICheckpointResume is E13 end to end: a run that periodically
// serializes its state, then a second process resuming the last saved
// checkpoint, must finish with exactly the digest of an uninterrupted
// run. Also covers the flag-pairing and resume usage errors.
func TestCLICheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	lbprun := buildTool(t, dir, "lbp-run")
	single := digestLine(t, runTool(t, lbprun, "-cores", "2", "-digest", "testdata/vecsum.c"))

	ckpt := filepath.Join(dir, "vecsum.ckpt")
	out := runTool(t, lbprun, "-cores", "2", "-digest", "-checkpoint", ckpt, "-every", "500", "testdata/vecsum.c")
	if digestLine(t, out) != single {
		t.Errorf("checkpointing changed the digest:\n%s\nwant %s", out, single)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	resumed := runTool(t, lbprun, "-resume", ckpt, "-digest")
	if !strings.Contains(resumed, "halt:     exit") {
		t.Fatalf("resumed run: %s", resumed)
	}
	if digestLine(t, resumed) != single {
		t.Errorf("resumed digest differs:\n%s\nwant %s", digestLine(t, resumed), single)
	}

	for _, args := range [][]string{
		{"-checkpoint", ckpt, "testdata/vecsum.c"}, // -checkpoint without -every
		{"-every", "500", "testdata/vecsum.c"},     // -every without -checkpoint
		{"-resume", ckpt, "testdata/vecsum.c"},     // resume with a program argument
	} {
		out, err := exec.Command(lbprun, args...).CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit code 2\n%s", args, err, out)
		}
	}

	// A checkpoint from an untraced run cannot satisfy -digest on resume.
	plain := filepath.Join(dir, "plain.ckpt")
	runTool(t, lbprun, "-cores", "2", "-checkpoint", plain, "-every", "500", "testdata/vecsum.c")
	out2, err := exec.Command(lbprun, "-resume", plain, "-digest").CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Errorf("-resume -digest on untraced checkpoint: err = %v, want exit 1\n%s", err, out2)
	}
	if !strings.Contains(string(out2), "no trace recorder") {
		t.Errorf("error message: %s", out2)
	}
}

// TestCLIResumeChromeNeedsRing: resuming a digest-only checkpoint with
// -chrome used to write an empty/partial trace silently (the recorder
// exists, but retains no events); it must fail like -digest/-tail on an
// untraced checkpoint, hinting at -tail. With a ring retained, -chrome
// still works after resume.
func TestCLIResumeChromeNeedsRing(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	lbprun := buildTool(t, dir, "lbp-run")

	// Digest-only original: recorder present, ring empty.
	ckpt := filepath.Join(dir, "digestonly.ckpt")
	runTool(t, lbprun, "-cores", "2", "-digest", "-checkpoint", ckpt, "-every", "500", "testdata/vecsum.c")
	chrome := filepath.Join(dir, "trace.json")
	out, err := exec.Command(lbprun, "-resume", ckpt, "-chrome", chrome).CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Errorf("-resume -chrome on ringless checkpoint: err = %v, want exit 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "no trace ring") || !strings.Contains(string(out), "-tail") {
		t.Errorf("error message must hint at -tail: %s", out)
	}
	if _, err := os.Stat(chrome); err == nil {
		t.Error("a partial chrome trace was written despite the error")
	}

	// With a retained ring the resumed -chrome export works.
	ckpt2 := filepath.Join(dir, "ringed.ckpt")
	runTool(t, lbprun, "-cores", "2", "-tail", "64", "-checkpoint", ckpt2, "-every", "500", "testdata/vecsum.c")
	resumed := runTool(t, lbprun, "-resume", ckpt2, "-chrome", chrome)
	if !strings.Contains(resumed, "trace written to") {
		t.Fatalf("resumed -chrome run: %s", resumed)
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("resumed chrome trace invalid (err=%v, %d events)", err, len(doc.TraceEvents))
	}
}

// TestCLIBenchdiff: a record agrees with itself; any changed simulated
// field, and a pair of records with nothing in them, exits 1; the
// throughput half and its -tolerance flag are gone (exit 2, by name).
func TestCLIBenchdiff(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	benchdiff := buildTool(t, dir, "benchdiff")
	tracked, err := os.ReadFile("BENCH_fig19.json")
	if err != nil {
		t.Fatal(err)
	}
	// variant writes the tracked record with every row given a perf
	// snapshot and one field of row 0 replaced.
	variant := func(name, field string, value any) string {
		var rec map[string]any
		dec := json.NewDecoder(bytes.NewReader(tracked))
		dec.UseNumber() // a digest does not survive float64
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		for _, row := range rec["rows"].([]any) {
			row.(map[string]any)["Perf"] = map[string]any{"cycles": 7}
		}
		if field != "" {
			rec["rows"].([]any)[0].(map[string]any)[field] = value
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := variant("same", "", nil)
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		old, new string
		exit     int
		want     string
	}{
		{"self", "BENCH_fig19.json", "BENCH_fig19.json", 0, "OK (5 rows identical)"},
		{"perf on one side only", "BENCH_fig19.json", same, 0, "OK"},
		{"cycles", same, variant("cycles", "Cycles", 6949), 1, "cycles changed"},
		{"digest", same, variant("digest", "Digest", 1), 1, "trace digest changed"},
		{"perf", same, variant("perf", "Perf", map[string]any{"cycles": 8}), 1, "perf snapshot changed"},
		{"no rows", empty, empty, 1, "no rows"},
		{"tolerance is gone", "-tolerance", "0.5", 2, "not defined: -tolerance"},
	} {
		out, err := exec.Command(benchdiff, tc.old, tc.new).CombinedOutput()
		code := 0
		var exitErr *exec.ExitError
		if errors.As(err, &exitErr) {
			code = exitErr.ExitCode()
		} else if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if code != tc.exit || !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", tc.name, code, tc.exit, tc.want, out)
		}
	}
}

// TestCLIServeSmoke drives the lbp-serve daemon over real HTTP: start
// on an ephemeral port, check /healthz, run one job, verify its digest
// matches a local lbp-run of the same program, and shut down cleanly
// on SIGTERM.
func TestCLIServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	lbpserve := buildTool(t, dir, "lbp-serve")
	lbprun := buildTool(t, dir, "lbp-run")

	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(lbpserve, "-addr", "127.0.0.1:0", "-addrfile", addrFile)
	var logBuf strings.Builder
	cmd.Stdout = &logBuf
	cmd.Stderr = &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	var addr string
	for i := 0; i < 100; i++ {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			addr = strings.TrimSpace(string(data))
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("server never wrote its address; log:\n%s", logBuf.String())
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}

	src, err := os.ReadFile("testdata/vecsum.c")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"source": string(src), "cores": 2, "digest": true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post("http://"+addr+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var jr struct {
		Status string `json:"status"`
		Halt   string `json:"halt"`
		Digest uint64 `json:"digest"`
		Events uint64 `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || jr.Status != "ok" || jr.Halt != "exit" {
		t.Fatalf("job: HTTP %d decode err %v result %+v", resp.StatusCode, err, jr)
	}
	want := digestLine(t, runTool(t, lbprun, "-cores", "2", "-digest", "testdata/vecsum.c"))
	if got := fmt.Sprintf("digest:   %#x over %d events", jr.Digest, jr.Events); got != want {
		t.Errorf("served digest %q differs from local run %q", got, want)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("SIGTERM shutdown: %v; log:\n%s", err, logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "drained") {
		t.Errorf("server did not drain cleanly:\n%s", logBuf.String())
	}
}

// TestCLICCBankValidation: lbp-cc promises a power-of-two -bank, like
// lbp-run; a bad -bank or an oversized -reserve must be a usage error
// instead of a silent uint32 truncation.
func TestCLICCBankValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	lbpcc := buildTool(t, dir, "lbp-cc")
	for _, args := range [][]string{
		{"-bank", "12345", "testdata/vecsum.c"},
		{"-bank", "0", "testdata/vecsum.c"},
		{"-bank", "4294967296", "testdata/vecsum.c"},
		{"-bank", "8192", "-reserve", "8192", "testdata/vecsum.c"},
		{"-bank", "1024", "testdata/vecsum.c"}, // below the default reserve
	} {
		out, err := exec.Command(lbpcc, args...).CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit code 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "must be") {
			t.Errorf("%v error message: %s", args, out)
		}
	}
	// A valid bank/reserve pair still compiles.
	out := runTool(t, lbpcc, "-cores", "2", "-bank", "32768", "-reserve", "4096", "testdata/vecsum.c")
	if !strings.Contains(out, "LBP_parallel_start") {
		t.Errorf("valid -bank compile: %.300s", out)
	}
}

// TestCLIBenchProfileCloseError: a -memprofile that cannot be written
// must be reported and make the run exit 1 — not silently leave a
// truncated or missing profile behind next to a zero exit status.
func TestCLIBenchProfileCloseError(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bench := buildTool(t, dir, "lbp-bench")
	// The profile path is a directory: os.Create fails after the figure
	// has otherwise completed successfully.
	out, err := exec.Command(bench, "-fig", "locality", "-outdir", dir, "-memprofile", dir).CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("-memprofile <dir>: err = %v, want exit code 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "-memprofile") {
		t.Errorf("error message must name the flag:\n%s", out)
	}
	// A writable path keeps the run green and leaves a non-empty profile.
	prof := filepath.Join(dir, "mem.pb.gz")
	runTool(t, bench, "-fig", "locality", "-outdir", dir, "-memprofile", prof)
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("profile not written: %v", err)
	}
}

// TestCLIFuzzSmoke: a tiny fixed-seed lbp-fuzz campaign must complete
// with zero divergences and a summary line; bad flags are usage errors.
func TestCLIFuzzSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	lbpfuzz := buildTool(t, dir, "lbp-fuzz")
	out := runTool(t, lbpfuzz, "-n", "5", "-seed", "1", "-crashdir", filepath.Join(dir, "crashes"))
	if !strings.Contains(out, "5 programs") || !strings.Contains(out, "0 failures") {
		t.Errorf("summary: %s", out)
	}
	for _, args := range [][]string{
		{"-n", "0"},
		{"-workers", "1"}, // the worker-count axis is gone: unknown flag
		{"-ffwd", "both"}, // both settings are always crossed: unknown flag
		{"-maxcores", "0"},
	} {
		out, err := exec.Command(lbpfuzz, args...).CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit code 2\n%s", args, err, out)
		}
	}
}

func TestCLIErrorPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	lbprun := buildTool(t, dir, "lbp-run")
	bad := filepath.Join(dir, "bad.c")
	os.WriteFile(bad, []byte("void main() { undefined_fn(); }"), 0o644)
	out, err := exec.Command(lbprun, bad).CombinedOutput()
	if err == nil {
		t.Errorf("bad program must fail, got:\n%s", out)
	}
	if !strings.Contains(string(out), "undefined") {
		t.Errorf("error message: %s", out)
	}
}

// Every example program must run to completion and print its headline.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := map[string]string{
		"quickstart": "cycle-deterministic",
		"matmul":     "verified",
		"sensors":    "actuator",
		"reduction":  "want 768",
		"pipeline":   "identical",
		"dma":        "no interrupts",
	}
	for name, want := range cases {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./examples/"+name).CombinedOutput()
			if err != nil {
				t.Fatalf("example %s: %v\n%s", name, err, out)
			}
			if !strings.Contains(string(out), want) {
				t.Errorf("example %s output missing %q:\n%s", name, want, out)
			}
		})
	}
}
