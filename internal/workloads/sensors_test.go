package workloads

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/lbp"
	"repro/internal/trace"
)

// buildSensors assembles the fusion program and attaches devices with the
// given per-round arrival cycles (one slice per sensor).
func buildSensors(t *testing.T, rounds int, arrivals [4][]lbp.SensorEvent) (*lbp.Machine, *lbp.Actuator) {
	t.Helper()
	prog, err := cc.Build(SensorFusionSource(rounds), cc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := lbp.New(lbp.DefaultConfig(1))
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	devices, act := SensorRig(prog, func(i int) []lbp.SensorEvent { return arrivals[i] })
	for _, d := range devices {
		m.AddDevice(d)
	}
	return m, act
}

func arrivalsAt(base uint64, vals [4]uint32) [4][]lbp.SensorEvent {
	var out [4][]lbp.SensorEvent
	for i := 0; i < 4; i++ {
		out[i] = []lbp.SensorEvent{{Cycle: base + uint64(i*37), Value: vals[i]}}
	}
	return out
}

func TestSensorFusion(t *testing.T) {
	m, act := buildSensors(t, 1, arrivalsAt(500, [4]uint32{10, 20, 30, 40}))
	if _, err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if len(act.Writes) != 1 {
		t.Fatalf("actuator writes: %+v", act.Writes)
	}
	if act.Writes[0].Value != 25 {
		t.Errorf("fusion = %d, want 25", act.Writes[0].Value)
	}
}

func TestSensorFusionOrderIndependent(t *testing.T) {
	// Sensors responding in a different (reversed) order produce the same
	// fused value: the static code position fixes the semantics.
	rev := [4][]lbp.SensorEvent{}
	vals := [4]uint32{10, 20, 30, 40}
	for i := 0; i < 4; i++ {
		rev[i] = []lbp.SensorEvent{{Cycle: 500 + uint64((3-i)*211), Value: vals[i]}}
	}
	m, act := buildSensors(t, 1, rev)
	if _, err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if len(act.Writes) != 1 || act.Writes[0].Value != 25 {
		t.Errorf("fusion under reversed arrivals: %+v", act.Writes)
	}
}

func TestSensorFusionMultiRound(t *testing.T) {
	var arr [4][]lbp.SensorEvent
	for i := 0; i < 4; i++ {
		arr[i] = []lbp.SensorEvent{
			{Cycle: 400 + uint64(i*13), Value: uint32(i)},
			{Cycle: 30000 + uint64(i*31), Value: uint32(10 * (i + 1))},
		}
	}
	m, act := buildSensors(t, 2, arr)
	if _, err := m.Run(4_000_000); err != nil {
		t.Fatal(err)
	}
	if len(act.Writes) != 2 {
		t.Fatalf("writes: %+v", act.Writes)
	}
	if act.Writes[0].Value != (0+1+2+3)/4 {
		t.Errorf("round 0 fusion = %d", act.Writes[0].Value)
	}
	if act.Writes[1].Value != (10+20+30+40)/4 {
		t.Errorf("round 1 fusion = %d", act.Writes[1].Value)
	}
}

// Same input schedule -> identical event digests (cycle determinism with
// external inputs); different schedules -> same result, different cycles.
func TestSensorDeterminism(t *testing.T) {
	run := func(base uint64) (uint64, uint64, uint32) {
		m, act := buildSensors(t, 1, arrivalsAt(base, [4]uint32{4, 8, 12, 16}))
		rec := trace.New(0)
		m.SetTrace(rec)
		res, err := m.Run(2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Digest(), res.Stats.Cycles, act.Writes[0].Value
	}
	d1, c1, v1 := run(600)
	d2, c2, v2 := run(600)
	d3, c3, v3 := run(2600)
	if d1 != d2 || c1 != c2 {
		t.Error("identical schedules must reproduce the run exactly")
	}
	if v1 != v2 || v1 != v3 || v1 != 10 {
		t.Errorf("fused values: %d %d %d, want 10", v1, v2, v3)
	}
	if c3 <= c1 {
		t.Errorf("later inputs must lengthen the run (%d vs %d)", c3, c1)
	}
	_ = d3
}
