package lbp_test

import (
	"testing"

	"repro/internal/lbp"
	"repro/internal/perf"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// maxVisitsPerStageCall bounds the harts a stage call examines on the
// sim_matmul64 programs (ISSUE 17). The walk this replaced examined up
// to four on every call; the candidate masks measured 0.3-1.5 when they
// landed (EXPERIMENTS E24 has the table).
const maxVisitsPerStageCall = 1.7

// TestStageVisitsMatmul64 runs the five Figure-20 programs at 64 harts
// on 16 cores — the sim_matmul64 benchmark workload — stage by stage
// against the reference walk, and holds every stage of every program to
// the visit bound: the walk over harts that cannot act must stay gone.
func TestStageVisitsMatmul64(t *testing.T) {
	if testing.Short() {
		t.Skip("five whole 64-hart runs through the stage-by-stage checker")
	}
	const h = 64
	// Figure 20's cycle counts at 64 harts (bench/pins.json carries the
	// same five): the stage-by-stage driver is a copy of Advance's loop
	// body and has to land where the real loop does.
	wantCycles := map[workloads.MatmulVariant]uint64{
		workloads.Base: 199830, workloads.Copy: 104281, workloads.Distributed: 105878,
		workloads.DistCopy: 107456, workloads.Tiled: 195200,
	}
	for _, v := range workloads.Variants {
		prog, err := workloads.BuildMatmul(v, h)
		if err != nil {
			t.Fatal(err)
		}
		m := lbp.New(workloads.MatmulConfig(h))
		m.SetTrace(trace.New(0))
		if err := m.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		visits, walked := lbp.RunAgainstReference(t, m)
		if m.Cycle() != wantCycles[v] {
			t.Errorf("%s: stage-by-stage run ended at cycle %d, want %d", v, m.Cycle(), wantCycles[v])
		}
		if err := workloads.VerifyMatmul(m, prog, v, h); err != nil {
			t.Error(err)
		}
		t.Logf("%-12s harts examined per stage call (the walk over all harts): fetch %.2f (%.2f) rename %.2f (%.2f) issue %.2f (%.2f) writeback %.2f (%.2f) commit %.2f (%.2f)",
			v, visits[perf.StageFetch], walked[perf.StageFetch], visits[perf.StageRename], walked[perf.StageRename],
			visits[perf.StageIssue], walked[perf.StageIssue], visits[perf.StageWriteback], walked[perf.StageWriteback],
			visits[perf.StageCommit], walked[perf.StageCommit])
		for s, n := range visits {
			if n > maxVisitsPerStageCall {
				t.Errorf("%s: %v examines %.2f harts per call, want <= %.1f", v, perf.Stage(s), n, maxVisitsPerStageCall)
			}
		}
	}
}

// TestSlotInvariantsMatmul64 single-steps the five 64-hart matmuls under
// the machine's invariant checker (StepChecking, hart_test.go) and holds
// each to its uninterrupted run's cycle count and digest.
func TestSlotInvariantsMatmul64(t *testing.T) {
	if testing.Short() {
		t.Skip("five whole 64-hart runs, one Advance per cycle")
	}
	const h = 64
	for _, v := range workloads.Variants {
		prog, err := workloads.BuildMatmul(v, h)
		if err != nil {
			t.Fatal(err)
		}
		var runs [2]*lbp.Machine
		for i := range runs {
			m := lbp.New(workloads.MatmulConfig(h))
			m.SetTrace(trace.New(0))
			if err := m.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			runs[i] = m
		}
		if _, err := runs[0].Run(workloads.MaxMatmulCycles(h)); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if _, err := lbp.StepChecking(t, runs[1], string(v)); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if a, b := runs[0], runs[1]; a.Cycle() != b.Cycle() || a.Trace().Digest() != b.Trace().Digest() {
			t.Errorf("%s: stepped run ended at cycle %d digest %#x, uninterrupted at %d / %#x",
				v, b.Cycle(), b.Trace().Digest(), a.Cycle(), a.Trace().Digest())
		}
	}
}
