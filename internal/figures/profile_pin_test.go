package figures

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/lbp"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// snapshotHash is the SHA-256 of the session's perf snapshot as JSON.
func snapshotHash(t *testing.T, sess *sim.Session) string {
	t.Helper()
	snap := sess.PerfSnapshot()
	if snap == nil {
		t.Fatal("no perf snapshot with profiling on")
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestProfileSnapshotUnchanged pins the profiled counters of the
// mostly-idle scaling program (fig 22) and of an all-live matmul (fig 19
// base) to the hashes the all-harts profiling walk produced before stall
// attribution started following the active cores. Each program runs
// straight, split into Advance legs around a checkpoint/resume (the
// idle-core credit must be settled into the checkpoint and restarted
// after it), and single-stepped with fast-forward off.
func TestProfileSnapshotUnchanged(t *testing.T) {
	type pin struct {
		name string
		spec func() (sim.Spec, error)
		want string
		long bool
	}
	scale := func(n int) func() (sim.Spec, error) {
		return func() (sim.Spec, error) {
			pt, err := placedPoint("scale", n*lbp.HartsPerCore, 64)
			return pt.spec, err
		}
	}
	pins := []pin{
		{name: "fig22/64c", spec: scale(64),
			want: "0e86735ffee4f8328eaf9b7e5a019db0ced739b611887320856c1e8e9815340e"},
		{name: "fig22/256c", spec: scale(256),
			want: "4b2b65536e38634a8d0ebfd608a2362de388ca78fc3af869ae4b40809404db21"},
		{name: "fig22/1024c", spec: scale(1024), long: true,
			want: "961a21198d68db6a34de4ea99fd5ac29e44358208f3e39f2b6fe622622559d35"},
		{name: "fig19/base", spec: func() (sim.Spec, error) {
			pt, err := matmulPoint(workloads.Base, 16)
			return pt.spec, err
		}, want: "d8af320f66cf87e708384aa40e3dc33e69a3746584a3d1f8b2059bd9630f89a1"},
	}
	for _, p := range pins {
		t.Run(p.name, func(t *testing.T) {
			if p.long && testing.Short() {
				t.Skip("1024-core profiled runs are long")
			}
			spec, err := p.spec()
			if err != nil {
				t.Fatal(err)
			}
			spec.Profile = true
			spec.Trace = sim.TraceSpec{Digest: true}

			straight, err := sim.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := straight.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotHash(t, straight); got != p.want {
				t.Errorf("straight: snapshot hash %s, want %s", got, p.want)
			}

			stepped, err := sim.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			stepped.Machine().SetFastForward(false)
			if _, err := stepped.Run(); err != nil {
				t.Fatal(err)
			}
			if got := snapshotHash(t, stepped); got != p.want {
				t.Errorf("fast-forward off: snapshot hash %s, want %s", got, p.want)
			}

			if got := snapshotHash(t, splitProfiled(t, spec, res.Stats.Cycles)); got != p.want {
				t.Errorf("split: snapshot hash %s, want %s", got, p.want)
			}
		})
	}
}

// splitProfiled runs spec to a third of total, reads the counters there
// (a mid-run read must not disturb them), advances to two thirds,
// checkpoints, and finishes on a session resumed from the checkpoint.
func splitProfiled(t *testing.T, spec sim.Spec, total uint64) *sim.Session {
	t.Helper()
	sess, err := sim.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for leg := 0; leg < 2; leg++ {
		if res, err := sess.Advance(total / 3); err != nil || res != nil {
			t.Fatalf("leg %d: res=%v err=%v", leg, res, err)
		}
		snap := sess.PerfSnapshot()
		attributed := snap.CommitCycles
		for _, c := range snap.Stalls {
			attributed += c.Value
		}
		if snap.Cycles != sess.Machine().Cycle() || attributed != snap.HartCycles {
			t.Fatalf("leg %d at cycle %d: snapshot has %d cycles, %d of %d hart-cycles attributed",
				leg, sess.Machine().Cycle(), snap.Cycles, attributed, snap.HartCycles)
		}
	}
	cp, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := sim.Resume(cp, sim.ResumeSpec{MaxCycles: spec.MaxCycles})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	return resumed
}
