package main

import (
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smokeOpts shrinks a workload to about 1 % of a real run: one set-up,
// two small batches (one pass), no time-based extension.
func smokeOpts(t *testing.T, root, workload string, seed int64) runOpts {
	t.Helper()
	o := runOpts{
		root: root, outDir: filepath.Join(t.TempDir(), "out"),
		workload: workload, seed: seed, minBatches: 2, setups: 1, batch: 50,
	}
	switch {
	case isSim(workload):
		o.minBatches = 1
	case workload == wServeHot:
		o.batch = 100 // one whole mix cycle, so the image class is exercised
	}
	return o
}

// TestSmoke runs all five workloads in-process at about 1 % of their
// real size and checks the result schema, the names against
// BENCHMARK.json, and that serve_cold and fleet_cold agree.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; about 10 s")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := loadPins(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	if len(spec.Workloads) != 5 {
		t.Fatalf("BENCHMARK.json declares %d workloads, want 5", len(spec.Workloads))
	}
	digests := map[string]string{}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		o := smokeOpts(t, root, w.Name, 7)
		// Simulation pins hold for any seed and size; results digests
		// are pinned for the real geometry only.
		o.pins = &pins{Seed: -1, Sim: pinned.Sim}
		r, err := runWorkload(o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if r.Failed != 0 || r.Attempted == 0 || r.OK != r.Attempted || exitCode(r) != 0 {
			t.Fatalf("%s: attempted %d ok %d failed %d: %v", w.Name, r.Attempted, r.OK, r.Failed, r.Failures)
		}
		if err := r.Metrics.check(spec.EndToEnd); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		for name, m := range r.Metrics {
			if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", w.Name, name, m.Value)
			}
		}
		var line struct {
			Correct   *bool                     `json:"correct"`
			Attempted *int                      `json:"attempted"`
			Failed    *int                      `json:"failed"`
			Metrics   map[string]map[string]any `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(contractLine(r)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("%s: contract line: %v", w.Name, err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: contract line %s", w.Name, contractLine(r))
		}
		for name, m := range line.Metrics {
			if _, ok := m["value"].(float64); !ok || len(m) != 2 || m["unit"] == nil {
				t.Errorf("%s: metric %s = %v, want exactly value and unit", w.Name, name, m)
			}
		}
		digests[w.Name] = r.Exact["results_digest"]
	}
	if digests[wServeCold] == "" || digests[wServeCold] != digests[wFleetCold] {
		t.Errorf("results_digest: serve_cold %q, fleet_cold %q", digests[wServeCold], digests[wFleetCold])
	}
}

// TestCorruptPinFailsTheRun: a wrong pin must turn into failed_share =
// 1 and a non-zero exit, for a results digest and for a simulated
// count alike.
func TestCorruptPinFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	o := smokeOpts(t, root, wServeCold, 7)
	o.pins = &pins{Seed: 7, ResultsDigest: map[string]string{wServeCold: "not the digest"}}
	r, err := runWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.failedShare() != 1 || exitCode(r) == 0 || contractCorrect(t, r) {
		t.Errorf("serve_cold with a corrupt digest pin: failed_share %v exit %d", r.failedShare(), exitCode(r))
	}

	o = smokeOpts(t, root, wSimScale, 7)
	good, err := loadPins(root)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]simPin{}
	for name, p := range good.Sim {
		p.Cycles++
		bad[name] = p
	}
	o.pins = &pins{Seed: -1, Sim: bad}
	if r, err = runWorkload(o); err != nil {
		t.Fatal(err)
	}
	if r.failedShare() != 1 || exitCode(r) == 0 || contractCorrect(t, r) {
		t.Errorf("sim_scale1024 with corrupt pins: failed_share %v exit %d", r.failedShare(), exitCode(r))
	}
}

func contractCorrect(t *testing.T, r *runResult) bool {
	t.Helper()
	var line struct {
		Correct bool `json:"correct"`
	}
	if err := json.Unmarshal([]byte(contractLine(r)), &line); err != nil {
		t.Fatal(err)
	}
	return line.Correct
}

// TestStreamsFollowTheSeed: the same seed gives byte-identical request
// streams, another seed another stream.
func TestStreamsFollowTheSeed(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	hash := func(workload string, seed int64) string {
		s, err := newStream(root, workload, seed, 100)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 2; b++ {
			if _, err := s.batch(b); err != nil {
				t.Fatal(err)
			}
		}
		return s.sha()
	}
	for _, w := range []string{wServeHot, wServeCold} {
		a, b, c := hash(w, 3), hash(w, 3), hash(w, 4)
		if a != b {
			t.Errorf("%s: seed 3 hashed %s then %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 give the same stream %s", w, a)
		}
	}
	if hash(wServeCold, 3) != hash(wFleetCold, 3) {
		t.Error("fleet_cold does not get serve_cold's stream")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Parent: 0, Name: "replay", StartNs: 0, EndNs: 10e6},
		{ID: 2, Parent: 1, Name: "cc.build", StartNs: 1e6, EndNs: 4e6},
		{ID: 3, Parent: 1, Name: "lbp.run", StartNs: 5e6, EndNs: 9e6},
	}}
	self := tr.selfTimes()
	if self["replay"][0] != 3 || self["cc.build"][0] != 3 || self["lbp.run"][0] != 4 {
		t.Errorf("self times %v", self)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	v := []float64{46, 1, 22, 2, 37, 4, 29, 7, 16, 11}
	if got, want := iqrShare(v), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Better: "lower", Bound: 0.10}
	higher := metricSpec{Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m            metricSpec
		a, b, spread float64
		want         string
	}{
		{lower, 100, 109, 0.02, verdictOK},
		{lower, 100, 111, 0.02, verdictRegressed},
		{lower, 100, 50, 0.02, verdictOK},
		{higher, 100, 89, 0.02, verdictRegressed},
		{higher, 100, 120, 0.02, verdictOK},
		{lower, 100, 130, 0.12, verdictUnresolved},
	} {
		if _, got := verdict(c.m, c.a, c.b, c.spread); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, spread %v) = %s, want %s", c.m.Better, c.a, c.b, c.spread, got, c.want)
		}
	}
}
