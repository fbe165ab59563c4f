package lbp

import (
	"testing"

	"repro/internal/mem"
)

// TestControlMessageAllocatesNothing: a control message travels by
// value in its memory event, so sending one over a link and delivering
// it allocates nothing (each was a heap object while the event held a
// pointer to it).
func TestControlMessageAllocatesNothing(t *testing.T) {
	m := New(DefaultConfig(2))
	c := m.cores[0]
	h, u := c.harts[0], &uop{}
	tgt := m.cores[1].harts[0] // on the next core: the forward link
	allocs := testing.AllocsPerRun(100, func() {
		c.send(h, u, mem.Msg{Kind: ctlSignal, Tgt: tgt.gid})
		m.cycle += 100
		m.Mem.Step(m.cycle)
	})
	if allocs != 0 {
		t.Errorf("a control message allocates %v times, want 0", allocs)
	}
	if m.stats.Signals != 101 || !tgt.PredSignal || m.err != nil {
		t.Errorf("%d signals delivered of 101, target signalled %v, fault %v", m.stats.Signals, tgt.PredSignal, m.err)
	}
}
