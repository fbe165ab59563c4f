package lbp_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/fuzzgen"
	"repro/internal/lbp"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The parent-written timing fixture. fuzzgen's FuzzDeterminism checks
// determinism and computed values, never timing against another build,
// so a stepper change that wakes a hart one cycle late is deterministic,
// correct and invisible to it. testdata/parent_timing.json holds (cycles, retired,
// digest, events, outcome) for a fixed corpus as the commit before the
// candidate-mask stepper computed them; this build must reproduce every
// row. Each row also pins what the toolchain made of the source before
// the machine saw it — image is the SHA-256 of the program's WriteImage
// bytes, asm (compiled rows) that of cc.BuildProgram's text, both as the
// commit before the one-table assembler produced them — so a compiler,
// peephole or assembler change that moves one byte fails here by name.
// Rows with cores 0 (the matmul variants, testdata/hello.s) are built
// and hashed but not run. To re-record on a trusted commit (recipe in
// EXPERIMENTS E24):
//
//	LBP_WRITE_PARENT_TIMING=1 go test ./internal/lbp -run TestParentTiming

const (
	parentTimingFile  = "testdata/parent_timing.json"
	parentTimingWrite = "LBP_WRITE_PARENT_TIMING"
	parentTimingSeeds = 240 // fuzzgen.Generate(seed, GenConfig{}) for seed = 1..N
)

type timingRow struct {
	Name    string `json:"name"`
	Cores   int    `json:"cores"`
	Cycles  uint64 `json:"cycles"`
	Retired uint64 `json:"retired"`
	Digest  string `json:"digest"`
	Events  uint64 `json:"events"`
	Outcome string `json:"outcome"` // halt message, or the run error
	Image   string `json:"image"`
	Asm     string `json:"asm,omitempty"`
}

type timingCase struct {
	name  string
	cfg   lbp.Config // Cores == 0: build only
	prog  *asm.Program
	image string
	asm   string
}

// buildTimingCase assembles asmText (compiles src first when asmText is
// empty) and hashes both artifacts.
func buildTimingCase(t *testing.T, name, src, asmText string, opt cc.Options) timingCase {
	t.Helper()
	c := timingCase{name: name}
	if asmText == "" {
		var err error
		if asmText, err = cc.BuildProgram(src, opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c.asm = fmt.Sprintf("%x", sha256.Sum256([]byte(asmText)))
	}
	prog, err := asm.Assemble(asmText, asm.Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var img strings.Builder
	if err := prog.WriteImage(&img); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	c.prog, c.image = prog, fmt.Sprintf("%x", sha256.Sum256([]byte(img.String())))
	return c
}

// timingCorpus is the X_PAR programs of this package's tests plus
// parentTimingSeeds generated OpenMP programs, each on every machine of
// {1, 4, 16} cores its team fits on, plus the build-only rows: the five
// matmul variants at 16, 64 and 256 harts and testdata/hello.s.
func timingCorpus(t *testing.T) []timingCase {
	t.Helper()
	var out []timingCase
	for _, x := range lbp.XParPrograms {
		c := buildTimingCase(t, "xpar/"+x.Name, "", x.Src, cc.Options{})
		c.cfg = x.Config()
		out = append(out, c)
	}
	for seed := int64(1); seed <= parentTimingSeeds; seed++ {
		p := fuzzgen.Generate(seed, fuzzgen.GenConfig{})
		opt := cc.DefaultOptions() // as sim.Compile("c", src, p.MinCores, 0) builds it
		if p.MinCores > 0 {
			opt.Cores = p.MinCores
		}
		c := buildTimingCase(t, fmt.Sprintf("fuzz/%d", seed), p.Render(), "", opt)
		for _, cores := range []int{1, 4, 16} {
			if cores >= p.MinCores {
				c.cfg = lbp.DefaultConfig(cores)
				out = append(out, c)
			}
		}
	}
	for _, h := range []int{16, 64, 256} {
		for _, v := range workloads.Variants {
			src, err := workloads.MatmulSource(v, h)
			if err != nil {
				t.Fatal(err)
			}
			opt := cc.DefaultOptions() // as workloads.BuildMatmul builds it
			opt.Cores, opt.SharedBankBytes, opt.BankReserveBytes = h/4, workloads.SharedBankBytes(h), 4*128
			out = append(out, buildTimingCase(t, fmt.Sprintf("matmul/%s/%d", v, h), src, "", opt))
		}
	}
	hello, err := os.ReadFile("../../testdata/hello.s")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, buildTimingCase(t, "testdata/hello.s", "", string(hello), cc.Options{}))
}

func runTimingCase(t *testing.T, c timingCase, ffwd bool) timingRow {
	t.Helper()
	if c.cfg.Cores == 0 {
		return timingRow{Name: c.name, Image: c.image, Asm: c.asm}
	}
	m := lbp.New(c.cfg)
	rec := trace.New(0)
	m.SetTrace(rec)
	m.SetFastForward(ffwd)
	if err := m.LoadProgram(c.prog); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	res, err := m.Run(20_000_000)
	row := timingRow{
		Name: c.name, Cores: c.cfg.Cores, Cycles: m.Cycle(),
		Digest: fmt.Sprintf("%#016x", rec.Digest()), Events: rec.Count(),
		Image: c.image, Asm: c.asm,
	}
	if err != nil {
		row.Outcome = err.Error()
	} else {
		row.Outcome = res.Halt
		row.Retired = res.Stats.Retired
	}
	return row
}

func TestParentTiming(t *testing.T) {
	corpus := timingCorpus(t)
	if os.Getenv(parentTimingWrite) != "" {
		rows := make([]timingRow, len(corpus))
		for i, c := range corpus {
			rows[i] = runTimingCase(t, c, true)
		}
		data, err := json.MarshalIndent(rows, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parentTimingFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows), parentTimingFile)
		return
	}
	data, err := os.ReadFile(parentTimingFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []timingRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(corpus) {
		t.Fatalf("%s has %d rows, the corpus has %d programs", parentTimingFile, len(want), len(corpus))
	}
	for i, c := range corpus {
		// Fast-forward is results-neutral, so both settings must land on
		// the parent's row; off is the leg that single-steps every wait.
		for _, ffwd := range []bool{true, false} {
			if got := runTimingCase(t, c, ffwd); got != want[i] {
				t.Errorf("ffwd=%v:\n got %+v\nwant %+v", ffwd, got, want[i])
			}
		}
	}
}
