package lbp

import (
	"testing"

	"repro/internal/perf"
)

// RunAgainstReference runs a loaded, device-less machine to its end
// stage by stage, checking every stage call against the reference walk
// (stepAgainstReference), and returns the harts examined per stage call,
// indexed by perf.Stage: by the stages, and by the reference walk. For
// tests that live outside the package because their programs come from
// packages that import this one.
func RunAgainstReference(t *testing.T, m *Machine) (visits, walked [perf.NumStages]float64) {
	t.Helper()
	m.rebuildActive(1)
	var v stageVisits
	for !m.exited {
		stepAgainstReference(t, m, &v)
	}
	if m.err != nil {
		t.Fatal(m.err)
	}
	for s := range visits {
		visits[s] = float64(v.visits[s]) / float64(v.calls[s])
		walked[s] = float64(v.walked[s]) / float64(v.calls[s])
	}
	return visits, walked
}
