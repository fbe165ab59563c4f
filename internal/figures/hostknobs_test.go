package figures

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/lbp"
	"repro/internal/perf"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Host-knob equivalence matrix: idle-cycle fast-forward and profiling
// are host-side switches, so every simulated result — cycles, retired,
// digests, perf snapshots — must be bit-identical across {fast-forward
// on/off} × {profiling on/off}.

func TestHostKnobEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence matrix is long")
	}
	const h = 64
	t.Parallel()
	var base *Row
	var basePerf *perf.Snapshot
	for _, ffwd := range []bool{false, true} {
		for _, profile := range []bool{false, true} {
			row, err := Runner{Profile: profile, noFastForward: !ffwd}.RunMatmul(workloads.Distributed, h)
			if err != nil {
				t.Fatalf("ffwd=%v profile=%v: %v", ffwd, profile, err)
			}
			snap := row.Perf
			row.Perf = nil // compared separately: nil unless profiling
			if base == nil {
				base = &row
			} else if !reflect.DeepEqual(*base, row) {
				t.Errorf("ffwd=%v profile=%v: row diverged:\n got %+v\nwant %+v",
					ffwd, profile, row, *base)
			}
			if !profile {
				continue
			}
			if snap == nil {
				t.Fatalf("ffwd=%v: no perf snapshot with profiling on", ffwd)
			}
			if basePerf == nil {
				basePerf = snap
			} else if !reflect.DeepEqual(basePerf, snap) {
				t.Errorf("ffwd=%v: perf snapshot diverged", ffwd)
			}
		}
	}
}

// sensorOutcome is everything observable from one sensor-fusion run.
type sensorOutcome struct {
	cycles  uint64
	retired uint64
	digest  uint64
	events  uint64
	skipped uint64 // Stats.FastForwarded — excluded from equivalence
	writes  []lbp.ActuatorWrite
}

// runSensorFusion runs the Figure 16 sensor-fusion program with
// fast-forward on or off and returns the outcome.
func runSensorFusion(t *testing.T, prog *asm.Program, ffwd bool, extra lbp.Device) sensorOutcome {
	t.Helper()
	m := lbp.New(lbp.DefaultConfig(1))
	rec := trace.New(0)
	m.SetTrace(rec)
	m.SetFastForward(ffwd)
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	devices, act := workloads.SensorRig(prog, func(i int) []lbp.SensorEvent {
		return []lbp.SensorEvent{
			{Cycle: 1000 + uint64(101*i), Value: uint32(10 * (i + 1))},
			{Cycle: 4000 + uint64(57*i), Value: uint32(20 * (i + 1))},
		}
	})
	for _, d := range devices {
		m.AddDevice(d)
	}
	if extra != nil {
		m.AddDevice(extra)
	}
	res, err := m.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return sensorOutcome{
		cycles:  res.Stats.Cycles,
		retired: res.Stats.Retired,
		digest:  rec.Digest(),
		events:  rec.Count(),
		skipped: res.Stats.FastForwarded,
		writes:  act.Writes,
	}
}

// opaqueDevice implements lbp.Device but not lbp.Armed: its presence must
// inhibit fast-forward entirely (the machine cannot know when it acts).
type opaqueDevice struct{}

func (opaqueDevice) Step(m *lbp.Machine, now uint64) {}

func TestSensorFastForwardEquivalence(t *testing.T) {
	t.Parallel()
	prog, err := cc.Build(workloads.SensorFusionSource(2), cc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	baseline := runSensorFusion(t, prog, false, nil)
	if len(baseline.writes) == 0 {
		t.Fatal("sensor fusion produced no actuator writes")
	}
	got := runSensorFusion(t, prog, true, nil)
	if got.skipped == 0 {
		t.Errorf("fast-forward never engaged on a device-idle workload")
	}
	got.skipped = baseline.skipped
	if !reflect.DeepEqual(got, baseline) {
		t.Errorf("ffwd=true: outcome diverged:\n got %+v\nwant %+v", got, baseline)
	}
	// A device without NextArm makes idle gaps unskippable: the machine
	// must fall back to single-stepping (and still agree on the results).
	opaque := runSensorFusion(t, prog, true, opaqueDevice{})
	if opaque.skipped != 0 {
		t.Errorf("fast-forward engaged despite a device without NextArm (skipped %d cycles)", opaque.skipped)
	}
	opaque.skipped = baseline.skipped
	if !reflect.DeepEqual(opaque, baseline) {
		t.Errorf("opaque device changed simulated results:\n got %+v\nwant %+v", opaque, baseline)
	}
}
