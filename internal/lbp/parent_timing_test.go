package lbp_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/asm"
	"repro/internal/fuzzgen"
	"repro/internal/lbp"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The parent-written timing fixture. lbp-fuzz checks determinism and
// computed values, never timing against another build, so a stepper
// change that wakes a hart one cycle late is deterministic, correct and
// invisible to it. testdata/parent_timing.json holds (cycles, retired,
// digest, events, outcome) for a fixed corpus as the commit before the
// candidate-mask stepper computed them; this build must reproduce every
// row. To re-record on a trusted commit (recipe in EXPERIMENTS E24):
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
}

type timingCase struct {
	name string
	cfg  lbp.Config
	prog *asm.Program
}

// timingCorpus is the X_PAR programs of this package's tests plus
// parentTimingSeeds generated OpenMP programs, each on every machine of
// {1, 4, 16} cores its team fits on.
func timingCorpus(t *testing.T) []timingCase {
	t.Helper()
	var out []timingCase
	for _, x := range lbp.XParPrograms {
		prog, err := sim.Compile("s", []byte(x.Src), 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", x.Name, err)
		}
		out = append(out, timingCase{"xpar/" + x.Name, x.Config(), prog})
	}
	for seed := int64(1); seed <= parentTimingSeeds; seed++ {
		p := fuzzgen.Generate(seed, fuzzgen.GenConfig{})
		prog, err := sim.Compile("c", []byte(p.Render()), p.MinCores, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, cores := range []int{1, 4, 16} {
			if cores >= p.MinCores {
				out = append(out, timingCase{fmt.Sprintf("fuzz/%d", seed), lbp.DefaultConfig(cores), prog})
			}
		}
	}
	return out
}

func runTimingCase(t *testing.T, c timingCase, ffwd bool) timingRow {
	t.Helper()
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
