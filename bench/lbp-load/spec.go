package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Workload names; later issues refer to them.
const (
	wSimMatmul = "sim_matmul64"
	wSimScale  = "sim_scale1024"
	wServeHot  = "serve_hot"
	wServeCold = "serve_cold"
	wFleetCold = "fleet_cold"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the single declaration of workload and
// metric names, units and bounds. Every run checks what it measured
// against it, so the file and the program cannot drift apart.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// findRoot walks up from the working directory to the checkout root,
// recognised by BENCHMARK.json next to the bench directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "bench", "lbp-load")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json with bench/lbp-load above the working directory")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	var s benchSpec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &s); err != nil {
		return nil, err
	}
	if s.RunSeconds < 1 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: run_seconds, workloads, end_to_end and per_layer are required")
	}
	return &s, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

func (m metricSet) names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// check reports how the measured set departs from the declared one.
func (m metricSet) check(declared []metricSpec) error {
	var bad []string
	seen := map[string]bool{}
	for _, d := range declared {
		seen[d.Name] = true
		got, ok := m[d.Name]
		switch {
		case !ok:
			bad = append(bad, d.Name+" not measured")
		case got.Unit != d.Unit:
			bad = append(bad, fmt.Sprintf("%s measured in %q, declared %q", d.Name, got.Unit, d.Unit))
		}
	}
	for _, name := range m.names() {
		if !seen[name] {
			bad = append(bad, name+" not declared")
		}
	}
	if bad != nil {
		return fmt.Errorf("metrics differ from BENCHMARK.json: %s", strings.Join(bad, "; "))
	}
	return nil
}

// runResult is what one run of one workload measured. The contract
// line printed last is a projection of it; bench/out keeps all of it.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`

	Attempted int      `json:"attempted"`
	OK        int      `json:"ok"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // the first few, for diagnosis

	Batches   int `json:"batches"`
	BatchSize int `json:"batch_size"`

	// Metrics are the declared end-to-end metrics (untraced run) or
	// per-layer metrics (traced run). Spread is, per metric, the
	// inter-quartile range over this run's batches as a share of their
	// median. Extra holds per-layer numbers an untraced run gets for
	// free (allocator deltas, p99): reported, never gated.
	Metrics metricSet          `json:"metrics"`
	Spread  map[string]float64 `json:"spread,omitempty"`
	Extra   metricSet          `json:"extra,omitempty"`

	// Series keeps the per-batch values the rate and latency metrics
	// were taken from, in batch order, for looking at a noisy run.
	Series map[string][]float64 `json:"series,omitempty"`

	// Exact holds values that repeat bit for bit on any host: the
	// request stream hash, the folded results digest, pinned simulated
	// counts. Two commits compare these exactly.
	Exact map[string]string `json:"exact"`
}

const maxFailuresKept = 8

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailuresKept {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// failedShare is the seventh end-to-end number of the issue. The
// contract forbids a declared metric that is always 0, so it travels
// as the attempted/failed counts of the result line instead.
func (r *runResult) failedShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// hostEnv records where a result set was measured.
type hostEnv struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LoadAvg    string `json:"loadavg"`
	Noisy      bool   `json:"noisy"`
}

func readEnv() hostEnv {
	e := hostEnv{
		Commit:     "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		e.LoadAvg = strings.TrimSpace(string(b))
		if f := strings.Fields(e.LoadAvg); len(f) > 0 {
			if one, err := strconv.ParseFloat(f[0], 64); err == nil {
				e.Noisy = one > float64(e.NProc)
			}
		}
	}
	return e
}

// resultSet is bench/out/results.json (and the committed baselines).
type resultSet struct {
	Schema    string                `json:"schema"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Env       hostEnv               `json:"env"`
	Workloads map[string]*runResult `json:"workloads"`
}

const resultSchema = "lbp-load/1"
