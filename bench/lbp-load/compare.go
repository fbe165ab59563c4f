package main

import (
	"fmt"
	"io"
	"strings"
)

// Verdicts of one (metric, workload) cell.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // B is worse than A by more than the bound
	verdictUnresolved = "unresolved" // the spread inside a run exceeds the bound: the cell cannot tell
)

// verdict judges B against A for one metric. worse is the share of A
// by which B is worse (negative when B is better).
func verdict(m metricSpec, a, b, spread float64) (worse float64, v string) {
	if a != 0 {
		worse = (b - a) / a
		if m.Better == "higher" {
			worse = (a - b) / a
		}
	}
	switch {
	case spread > m.Bound:
		return worse, verdictUnresolved
	case worse > m.Bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

// compareSets prints, for every (end-to-end metric, workload) cell, A,
// B, the ratio with its base, the spread and the verdict, then checks
// that every exact value agrees. Non-zero on any regression, on any
// failed request and on any differing exact value.
func compareSets(stdout, stderr io.Writer, spec *benchSpec, pathA, pathB string) int {
	var a, b resultSet
	for path, set := range map[string]*resultSet{pathA: &a, pathB: &b} {
		if err := readJSON(path, set); err != nil {
			fmt.Fprintln(stderr, "lbp-load:", err)
			return 1
		}
		if set.Schema != resultSchema {
			fmt.Fprintf(stderr, "lbp-load: %s: schema %q, want %q\n", path, set.Schema, resultSchema)
			return 1
		}
	}
	fmt.Fprintf(stdout, "A = %s (commit %s, seed %d)\nB = %s (commit %s, seed %d)\n",
		pathA, a.Env.Commit, a.Seed, pathB, b.Env.Commit, b.Seed)
	if a.Env.Noisy || b.Env.Noisy {
		fmt.Fprintln(stdout, "WARNING: a set was recorded on a loaded host; host-time verdicts are weak")
	}
	bad := 0
	fmt.Fprintf(stdout, "%-14s %-20s %13s %13s %12s %8s %7s  %s\n",
		"workload", "metric", "A", "B", "B/A (base A)", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(stdout, "%-14s missing from a set\n", w.Name)
			bad++
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, okA := ra.Metrics[m.Name]
			mb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				fmt.Fprintf(stdout, "%-14s %-20s missing from a set\n", w.Name, m.Name)
				bad++
				continue
			}
			spread := max(ra.Spread[m.Name], rb.Spread[m.Name])
			worse, v := verdict(m, ma.Value, mb.Value, spread)
			if v == verdictRegressed {
				bad++
			}
			direction := "worse"
			if worse < 0 {
				direction, worse = "better", -worse
			}
			fmt.Fprintf(stdout, "%-14s %-20s %13.6g %13.6g %12.4f %7.1f%% %6.0f%%  %s (%.1f%% %s, %s)\n",
				w.Name, m.Name, ma.Value, mb.Value, mb.Value/ma.Value, 100*spread, 100*m.Bound, v, 100*worse, direction, m.Unit)
		}
		if ra.Failed != 0 || rb.Failed != 0 {
			fmt.Fprintf(stdout, "%-14s failed requests: A %d of %d, B %d of %d\n", w.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			bad++
		}
		for _, k := range sortedKeys(ra.Exact) {
			if a.Seed != b.Seed && !strings.HasPrefix(k, "sim.") {
				continue // stream hashes and results digests are per seed
			}
			if ra.Exact[k] != rb.Exact[k] {
				fmt.Fprintf(stdout, "%-14s exact %s differs:\n   A %s\n   B %s\n", w.Name, k, ra.Exact[k], rb.Exact[k])
				bad++
			}
		}
	}
	if a.Seed != b.Seed {
		fmt.Fprintln(stdout, "seeds differ: exact values (stream hashes, results digests) not compared")
	}
	if bad != 0 {
		fmt.Fprintf(stdout, "%d cells regressed, failed or differ\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "no regression; exact values identical")
	return 0
}
