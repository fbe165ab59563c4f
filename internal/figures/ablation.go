package figures

import (
	"fmt"
	"strings"

	"repro/internal/lbp"
	"repro/internal/workloads"
)

// Design ablations (E8, E9): measure how the paper's architectural
// choices affect the headline experiment. Each sweep reruns one matmul
// variant with one machine parameter changed per point; the rows carry
// digests, so sweep results compare exactly across worker counts and
// across PRs.

// sweep builds variant v at h harts once and runs it on n machines;
// vary edits point i's own copy of the experiment's Config and names it.
func (r Runner) sweep(v workloads.MatmulVariant, h, n int, vary func(i int, c *lbp.Config) string) ([]Row, error) {
	base, err := matmulPoint(v, h)
	if err != nil {
		return nil, err
	}
	points := make([]point, n)
	for i := range points {
		cfg := *base.spec.Config
		points[i] = base
		points[i].label = vary(i, &cfg)
		points[i].spec.Config = &cfg
	}
	return r.runAll(points)
}

// RunHopLatAblation sweeps the per-link router latency: LBP's tree must
// keep remote latency low enough for the 1-deep result buffers to hide.
func (r Runner) RunHopLatAblation(v workloads.MatmulVariant, h int, hops []int) ([]Row, error) {
	return r.sweep(v, h, len(hops), func(i int, c *lbp.Config) string {
		c.Mem.HopLat = hops[i]
		return fmt.Sprintf("hop=%d", hops[i])
	})
}

// RunBankLatAblation sweeps the shared-bank access latency.
func (r Runner) RunBankLatAblation(v workloads.MatmulVariant, h int, lats []int) ([]Row, error) {
	return r.sweep(v, h, len(lats), func(i int, c *lbp.Config) string {
		c.Mem.SharedLat = lats[i]
		return fmt.Sprintf("bankLat=%d", lats[i])
	})
}

// RunMemOrderAblation compares the strict per-hart memory issue order
// with fully relaxed issue (the paper's bare hardware; safe here because
// the matmul kernels have no same-address hazards inside a hart).
func (r Runner) RunMemOrderAblation(v workloads.MatmulVariant, h int) ([]Row, error) {
	labels := []string{"strict", "relaxed"}
	return r.sweep(v, h, len(labels), func(i int, c *lbp.Config) string {
		c.StrictMemOrder = i == 0
		return labels[i]
	})
}

// RunFULatAblation sweeps the divider latency to show it is off the
// critical path of the matmul (no divisions in the inner loops).
func (r Runner) RunFULatAblation(v workloads.MatmulVariant, h int, divLats []int) ([]Row, error) {
	return r.sweep(v, h, len(divLats), func(i int, c *lbp.Config) string {
		c.DivLat = divLats[i]
		return fmt.Sprintf("div=%d", divLats[i])
	})
}

// RunChipAblation compares one monolithic machine against the same core
// count split into chips (Figure 15): the team spans the chip edges, the
// program result is unchanged, the cycles grow with the edge latency.
func (r Runner) RunChipAblation(v workloads.MatmulVariant, h int, chipSizes []int, chipHop int) ([]Row, error) {
	return r.sweep(v, h, len(chipSizes), func(i int, c *lbp.Config) string {
		cs := chipSizes[i]
		c.Mem.CoresPerChip = cs
		c.Mem.ChipHopLat = chipHop
		if cs > 0 && cs < h/4 {
			return fmt.Sprintf("chips-of-%d", cs)
		}
		return "monolithic"
	})
}

// FormatAblationPoints renders one sweep table.
func FormatAblationPoints(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s %12s %12s %8s\n", "config", "cycles", "retired", "IPC")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12d %12d %8.2f\n", r.Label, r.Cycles, r.Retired, r.IPC)
	}
	return b.String()
}
