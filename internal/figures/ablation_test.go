package figures

import (
	"strings"
	"testing"

	"repro/internal/workloads"
)

func TestHopLatAblationMonotone(t *testing.T) {
	t.Parallel()
	pts, err := Runner{}.RunHopLatAblation(workloads.Base, 16, []int{1, 2, 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Cycles <= pts[i-1].Cycles {
			t.Errorf("slower links must cost cycles: %+v", pts)
		}
		if pts[i].Retired != pts[0].Retired {
			t.Errorf("timing ablation must not change the instruction count: %+v", pts)
		}
	}
}

func TestBankLatAblationMonotone(t *testing.T) {
	t.Parallel()
	pts, err := Runner{}.RunBankLatAblation(workloads.Base, 16, []int{1, 3, 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Cycles <= pts[i-1].Cycles {
			t.Errorf("slower banks must cost cycles: %+v", pts)
		}
	}
}

func TestMemOrderAblation(t *testing.T) {
	t.Parallel()
	pts, err := Runner{}.RunMemOrderAblation(workloads.Copy, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points: %+v", pts)
	}
	strict, relaxed := pts[0], pts[1]
	if relaxed.Cycles > strict.Cycles {
		t.Errorf("relaxed issue (%d) must not be slower than strict (%d)",
			relaxed.Cycles, strict.Cycles)
	}
	if strict.Retired != relaxed.Retired {
		t.Errorf("ordering must not change the instruction count: %+v", pts)
	}
}

func TestFULatAblationOffCriticalPath(t *testing.T) {
	t.Parallel()
	// The matmul thread does no division in its inner loops (base
	// version); a slower divider must barely move the cycle count.
	pts, err := Runner{}.RunFULatAblation(workloads.Base, 16, []int{17, 68})
	if err != nil {
		t.Fatal(err)
	}
	slow, fast := float64(pts[1].Cycles), float64(pts[0].Cycles)
	if slow > fast*1.05 {
		t.Errorf("divider latency is off the critical path: %v vs %v", slow, fast)
	}
}

func TestFormatAblation(t *testing.T) {
	t.Parallel()
	out := FormatAblationPoints("hop sweep", []Row{
		{Label: "hop=1", Cycles: 100, Retired: 50, IPC: 0.5},
	})
	if !strings.Contains(out, "hop=1") || !strings.Contains(out, "cycles") {
		t.Errorf("output: %s", out)
	}
}

func TestChipAblation(t *testing.T) {
	t.Parallel()
	pts, err := Runner{}.RunChipAblation(workloads.Base, 16, []int{0, 2, 1}, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points: %+v", pts)
	}
	// finer chip splits cross more edges: cycles must grow
	if !(pts[0].Cycles < pts[1].Cycles && pts[1].Cycles < pts[2].Cycles) {
		t.Errorf("cycles must grow with chip splitting: %+v", pts)
	}
	for _, p := range pts[1:] {
		if p.Retired != pts[0].Retired {
			t.Errorf("chip topology must not change the instruction count: %+v", pts)
		}
	}
}
