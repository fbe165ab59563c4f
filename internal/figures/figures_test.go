package figures

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/phimodel"
	"repro/internal/workloads"
)

func TestFigure19ShapeHolds(t *testing.T) {
	t.Parallel()
	rows, err := Runner{}.RunMatmulFigure(16)
	if err != nil {
		t.Fatal(err)
	}
	by := map[workloads.MatmulVariant]Row{}
	for _, r := range rows {
		by[workloads.MatmulVariant(r.Label)] = r
	}
	// Paper, Figure 19: on 4 cores the base version is the fastest even
	// though tiled has the highest IPC; tiled is about twice slower.
	for _, v := range workloads.Variants {
		if v == workloads.Base {
			continue
		}
		if by[workloads.Base].Cycles > by[v].Cycles {
			t.Errorf("base (%d cycles) must be fastest at 16 harts, %s took %d",
				by[workloads.Base].Cycles, v, by[v].Cycles)
		}
	}
	if by[workloads.Tiled].IPC <= by[workloads.Base].IPC {
		t.Errorf("tiled IPC (%.2f) must exceed base IPC (%.2f)",
			by[workloads.Tiled].IPC, by[workloads.Base].IPC)
	}
	if by[workloads.Tiled].Cycles < 2*by[workloads.Base].Cycles {
		t.Logf("note: tiled/base cycle ratio %.2f (paper: ~2)",
			float64(by[workloads.Tiled].Cycles)/float64(by[workloads.Base].Cycles))
	}
	out := FormatMatmulFigure(rows, nil)
	if !strings.Contains(out, "Figure 19") || !strings.Contains(out, "base") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestFigure20ShapeHolds(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Runner{}.RunMatmulFigure(64)
	if err != nil {
		t.Fatal(err)
	}
	by := map[workloads.MatmulVariant]Row{}
	for _, r := range rows {
		by[workloads.MatmulVariant(r.Label)] = r
	}
	// Paper, Figure 20: at 16 cores the copy version is the fastest and
	// base is clearly slower than copy.
	if by[workloads.Copy].Cycles > by[workloads.Base].Cycles {
		t.Errorf("copy (%d) must beat base (%d) at 64 harts",
			by[workloads.Copy].Cycles, by[workloads.Base].Cycles)
	}
	if by[workloads.Copy].IPC <= by[workloads.Base].IPC {
		t.Errorf("copy IPC (%.2f) must exceed base IPC (%.2f)",
			by[workloads.Copy].IPC, by[workloads.Base].IPC)
	}
}

func TestCycleDeterminismAcrossVariants(t *testing.T) {
	t.Parallel()
	reports := []DetReport{}
	for _, v := range []workloads.MatmulVariant{workloads.Base, workloads.Tiled} {
		rep, err := Runner{}.RunDeterminism(v, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AllEqual {
			t.Errorf("%s: digests %v cycles %v differ across runs", v, rep.Digests, rep.Cycles)
		}
		reports = append(reports, rep)
	}
	out := FormatDeterminism(reports)
	if !strings.Contains(out, "true") {
		t.Errorf("report:\n%s", out)
	}
}

func TestHartAblationScales(t *testing.T) {
	t.Parallel()
	rows, err := Runner{}.RunHartAblation(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows: %+v", rows)
	}
	// IPC must increase with the number of active harts, and four harts
	// must at least double the single-hart IPC (the paper: at least two
	// full harts are necessary to fill the pipeline).
	for i := 1; i < 4; i++ {
		if rows[i].IPC <= rows[i-1].IPC {
			t.Errorf("IPC must grow with harts: %+v", rows)
		}
	}
	if rows[3].IPC < 2*rows[0].IPC {
		t.Errorf("4-hart IPC %.2f should at least double 1-hart IPC %.2f",
			rows[3].IPC, rows[0].IPC)
	}
	if rows[0].IPC > 0.55 {
		t.Errorf("a single hart cannot exceed ~0.5 IPC (fetch suspension), got %.2f", rows[0].IPC)
	}
}

func TestLocalityAllLocal(t *testing.T) {
	t.Parallel()
	rows, err := Runner{}.RunLocality([]int{16}, 64)
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Remote != 0 || !strings.Contains(FormatLocality(rows), "true") {
		t.Errorf("placed set/get must make no routed accesses: %+v", row)
	}
	if row.Local == 0 {
		t.Error("the program must access memory")
	}
}

func TestPhiRowInFigure21Format(t *testing.T) {
	t.Parallel()
	rows := []Row{{Label: string(workloads.Tiled), Harts: 256, Cycles: 3_400_000,
		Retired: 200_000_000, IPC: 60}}
	phi := phimodel.Default().TiledMatmul(256)
	out := FormatMatmulFigure(rows, &phi)
	if !strings.Contains(out, "xeon-phi2") || !strings.Contains(out, "Figure 21") {
		t.Errorf("output:\n%s", out)
	}
}

func TestResponseTimeBounded(t *testing.T) {
	t.Parallel()
	rep, err := Runner{}.RunResponseSweep(24)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) != 24 {
		t.Fatalf("samples: %v", rep.Samples)
	}
	// The paper: "within a few cycles it is received ... easy to bound".
	// The delay must be small (well under a thousand cycles end to end,
	// including the parallel-sections join and the fusion arithmetic)
	// and its jitter bounded by one polling-loop period.
	if rep.Max > 2000 {
		t.Errorf("response delay too large: %+v", rep)
	}
	if rep.Jitter() > 64 {
		t.Errorf("jitter %d exceeds a polling period: %v", rep.Jitter(), rep.Samples)
	}
	out := FormatResponse(rep)
	if !strings.Contains(out, "jitter") {
		t.Errorf("format: %s", out)
	}
}

// Regression test: a non-positive phase count used to slip through and
// produce a zero-sample report whose Min stayed at ^uint64(0), so Jitter
// wrapped around to ~1.8e19 cycles instead of failing.
func TestResponseSweepRejectsNonPositivePhases(t *testing.T) {
	t.Parallel()
	for _, phases := range []int{0, -3} {
		rep, err := Runner{}.RunResponseSweep(phases)
		if err == nil {
			t.Fatalf("phases=%d: no error (report %+v, jitter %d)", phases, rep, rep.Jitter())
		}
		if !strings.Contains(err.Error(), "at least one phase") {
			t.Errorf("phases=%d: unexpected error %v", phases, err)
		}
	}
}

// The formatters used to index [0] of whatever they were handed: a figure
// with no rows, or a determinism report of zero runs, is the header alone.
func TestFormatMatmulFigureNoRows(t *testing.T) {
	t.Parallel()
	out := FormatMatmulFigure(nil, nil)
	if !strings.Contains(out, "version") || strings.Count(out, "\n") != 2 {
		t.Errorf("want the two header lines, got:\n%s", out)
	}
}

func TestFormatDeterminismNoRuns(t *testing.T) {
	t.Parallel()
	rep, err := Runner{}.RunDeterminism(workloads.Base, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, reports := range [][]DetReport{nil, {rep}} {
		out := FormatDeterminism(reports)
		if !strings.Contains(out, "identical") || strings.Count(out, "\n") != 2 {
			t.Errorf("want the two header lines, got:\n%s", out)
		}
	}
}

// TestSourcesBuildEqualsText: the two programs this package writes (the
// E5 ablation and the placed set/get program of Figure 4) assemble to
// the same image through cc.Build's statement list and through the text
// cc.BuildProgram renders (internal/cc's TestBuildEqualsText, for the
// sources it cannot reach).
func TestSourcesBuildEqualsText(t *testing.T) {
	placed := cc.DefaultOptions()
	placed.Cores, placed.BankReserveBytes = 16, placedReserveBytes
	for name, c := range map[string]struct {
		src string
		opt cc.Options
	}{
		"ablation": {ablationSource(4, 100), cc.DefaultOptions()},
		"placed":   {placedSource(64, 32), placed},
	} {
		built, err := cc.Build(c.src, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		text, err := cc.BuildProgram(c.src, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assembled, err := asm.Assemble(text, asm.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var b, a bytes.Buffer
		if built.WriteImage(&b) != nil || assembled.WriteImage(&a) != nil || !bytes.Equal(b.Bytes(), a.Bytes()) {
			t.Errorf("%s: the statement list's image (%d bytes) differs from the text's (%d bytes)", name, b.Len(), a.Len())
		}
	}
}
