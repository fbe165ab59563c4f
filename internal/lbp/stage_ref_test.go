package lbp

import (
	"testing"

	"repro/internal/perf"
)

// Reference stage selection. Before the candidate masks (core.go), every
// stage of every core-cycle walked all four harts in rotating order and
// took the first one its predicate accepted. The predicates below are
// that stepper's, verbatim, and refSelect is its walk; they are retained
// as the executable specification of which hart a stage selects. Nothing
// outside the tests calls them.

// stageRef describes one pipeline stage to the tests: how to run it
// (run reports whether the stage acted), where its candidate mask and
// rotation pointer live, and the reference predicate.
type stageRef struct {
	stage    perf.Stage
	run      func(c *core, now uint64) bool
	mask     func(c *core) *uint8
	rr       func(c *core) *int
	eligible func(c *core, h *hart, now uint64) bool
}

// refStages lists the stages in the order stepCompute runs them.
var refStages = []stageRef{
	{perf.StageCommit, (*core).commit,
		func(c *core) *uint8 { return &c.commitC }, func(c *core) *int { return &c.CommitRR },
		func(c *core, h *hart, now uint64) bool {
			if h.RobN == 0 || !h.robFront().Done {
				return false
			}
			if u := h.robFront(); u.isRet {
				if (h.HasPred && !h.PredSignal) || h.InflightMem > 0 || h.Exec != noSlot {
					return false
				}
			}
			return true
		}},
	{perf.StageWriteback, (*core).writeback,
		func(c *core) *uint8 { return &c.wbC }, func(c *core) *int { return &c.WbRR },
		func(c *core, h *hart, now uint64) bool {
			return !(h.Exec == noSlot || h.Rob[h.Exec].MemWait || h.ExecReadyAt > now)
		}},
	{perf.StageIssue, (*core).issue,
		func(c *core) *uint8 { return &c.issueC }, func(c *core) *int { return &c.IssueRR },
		func(c *core, h *hart, now uint64) bool { return c.issuable(h) >= 0 }},
	{perf.StageRename, (*core).rename,
		func(c *core) *uint8 { return &c.renameC }, func(c *core) *int { return &c.RenameRR },
		func(c *core, h *hart, now uint64) bool {
			return !(!h.HasIB || h.itFull(&c.m.cfg) || h.robFull(&c.m.cfg))
		}},
	{perf.StageFetch, (*core).fetch,
		func(c *core) *uint8 { return &c.fetchC }, func(c *core) *int { return &c.FetchRR },
		func(c *core, h *hart, now uint64) bool {
			if h.State != hartRunning || !h.PCValid || h.PCReady > now || h.HasIB {
				return false
			}
			if h.SyncmWait && h.InflightMem > 0 {
				return false
			}
			return true
		}},
}

// refSelect is the walk the masks replaced: the first hart after the
// rotation pointer that the stage's predicate accepts, or nil — and the
// number of harts the walk examined to find out.
func refSelect(c *core, st *stageRef, now uint64) (*hart, int) {
	for i := 1; i <= HartsPerCore; i++ {
		h := c.harts[(*st.rr(c)+i)%HartsPerCore]
		if st.eligible(c, h, now) {
			return h, i
		}
	}
	return nil, HartsPerCore
}

// noClock, passed as `now`, opens every time gate of a reference
// predicate (pcReadyCycle, execReadyAt) and leaves the conditions only
// an event can lift — the ones a cleared candidate bit stands for.
const noClock = ^uint64(0)

// checkMasksCover asserts the wake contract on a machine paused at a
// cycle boundary: a hart a stage's predicate accepts once its time gate
// is open has its candidate bit set.
func checkMasksCover(t *testing.T, m *Machine, label string) {
	t.Helper()
	for _, c := range m.cores {
		for si := range refStages {
			st := &refStages[si]
			for _, h := range c.harts {
				if st.eligible(c, h, noClock) && *st.mask(c)&h.bit == 0 {
					t.Fatalf("%s: cycle %d: core %d hart %d is eligible for %v but not a candidate (mask %04b)",
						label, m.cycle, c.idx, h.idx, st.stage, *st.mask(c))
				}
			}
		}
	}
}

// stageVisits accumulates, per stage, the stage calls made, the harts
// those calls examined, and the harts the reference walk would have.
type stageVisits struct {
	calls, visits, walked [perf.NumStages]uint64
}

// stepAgainstReference runs one cycle of a device-less machine the way
// Machine.Advance does, but stage by stage: before each stage call it
// asks refSelect which hart the all-harts walk would take and after the
// call checks the stage took exactly that one, and that the stage
// reported acting exactly when its perf.StageBusy counter moved —
// stepCompute's answer, which fast-forward trusts. It also counts the harts
// each scan examined — the set bits of the stage's mask in scan order, up
// to the selected one — which is what the masks exist to shrink.
func stepAgainstReference(t *testing.T, m *Machine, v *stageVisits) {
	t.Helper()
	m.cycle++
	now := m.cycle
	if !m.Mem.Drained() {
		m.progress = now
	}
	m.Mem.Step(now)
	for _, c := range m.active {
		for si := range refStages {
			st := &refStages[si]
			want, walked := refSelect(c, st, now)
			v.walked[st.stage] += uint64(walked)
			mask, rr, busy := *st.mask(c), *st.rr(c), c.perf.StageBusy[st.stage]
			acted := st.run(c, now)
			var got *hart
			moved := c.perf.StageBusy[st.stage] != busy
			if moved {
				got = c.harts[*st.rr(c)]
			}
			if acted != moved {
				t.Fatalf("cycle %d core %d %v: the stage reported acting %v, its busy counter moved %v",
					now, c.idx, st.stage, acted, moved)
			}
			if got != want {
				t.Fatalf("cycle %d core %d %v: selected %s, the reference walk selects %s",
					now, c.idx, st.stage, hartName(got), hartName(want))
			}
			v.calls[st.stage]++
			// The scan examined the candidates in rotating order up to the
			// selected hart, or all of them.
			for i := 1; i <= HartsPerCore; i++ {
				h := c.harts[(rr+i)%HartsPerCore]
				if mask&h.bit != 0 {
					v.visits[st.stage]++
				}
				if h == got {
					break
				}
			}
		}
	}
	if len(m.late) > 0 {
		m.applyLate(now)
	}
	if m.activeDirty {
		m.rebuildActive(now)
	}
	if m.profiling {
		m.profTick(now)
	}
}

func hartName(h *hart) string {
	if h == nil {
		return "no hart"
	}
	return "hart " + itoa(h.idx)
}
