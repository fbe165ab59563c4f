// benchdiff compares two BENCH_fig<N>.json records produced by lbp-bench.
//
// Simulated results are deterministic, so any change in cycles, retired
// instructions, IPC, access mix, trace digests, event counts or (when both
// records were taken with -profile) perf snapshots between the two records
// is a failure — the simulator's behavior drifted. Host-side
// throughput (simulated cycles per host second) is allowed to vary, but a
// regression of more than -tolerance (default 10%) also fails, so the
// performance trajectory of the simulator itself is guarded.
//
// Usage:
//
//	benchdiff [-tolerance 0.10] old.json new.json
//
// Exit status: 0 when the records agree (and throughput held), 1 on any
// simulated difference or throughput regression, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"

	"repro/internal/figures"
)

// benchFile mirrors the fields of lbp-bench's benchRecord that benchdiff
// inspects; unknown fields are ignored so the format may grow.
type benchFile struct {
	Figure      int                 `json:"figure"`
	Rows        []figures.MatmulRow `json:"rows"`
	WallTimeSec float64             `json:"wallTimeSec"`
}

func readBench(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func main() {
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional host-throughput regression")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tolerance F] old.json new.json")
		os.Exit(2)
	}
	// A negative tolerance fails every comparison and one >= 1 disables
	// the throughput guard entirely; both are usage errors.
	if *tolerance < 0 || *tolerance >= 1 {
		fmt.Fprintf(os.Stderr, "benchdiff: -tolerance %g must be in [0, 1)\n", *tolerance)
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tolerance F] old.json new.json")
		os.Exit(2)
	}
	oldB, err := readBench(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newB, err := readBench(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
		failed = true
	}
	if oldB.Figure != newB.Figure {
		fail("figure mismatch: %d vs %d", oldB.Figure, newB.Figure)
	}
	if len(oldB.Rows) != len(newB.Rows) {
		fail("row count changed: %d vs %d", len(oldB.Rows), len(newB.Rows))
	}
	n := len(oldB.Rows)
	if len(newB.Rows) < n {
		n = len(newB.Rows)
	}
	for i := 0; i < n; i++ {
		o, w := oldB.Rows[i], newB.Rows[i]
		if o.Variant != w.Variant || o.Harts != w.Harts {
			fail("row %d identity changed: %s/%d vs %s/%d", i, o.Variant, o.Harts, w.Variant, w.Harts)
			continue
		}
		id := fmt.Sprintf("row %s/%d", o.Variant, o.Harts)
		if o.Cycles != w.Cycles {
			fail("%s: cycles changed: %d vs %d", id, o.Cycles, w.Cycles)
		}
		if o.Retired != w.Retired {
			fail("%s: retired changed: %d vs %d", id, o.Retired, w.Retired)
		}
		if o.Digest != w.Digest || o.Events != w.Events {
			fail("%s: trace digest changed: %#x/%d vs %#x/%d", id, o.Digest, o.Events, w.Digest, w.Events)
		}
		if o.Remote != w.Remote || o.Local != w.Local {
			fail("%s: access mix changed: remote %d/local %d vs remote %d/local %d",
				id, o.Remote, o.Local, w.Remote, w.Local)
		}
		// Counter snapshots (lbp-bench -profile) are as deterministic as
		// digests; compared when both records carry them.
		if o.Perf != nil && w.Perf != nil && !reflect.DeepEqual(o.Perf, w.Perf) {
			fail("%s: perf snapshot changed", id)
		}
		if o.Host == nil || w.Host == nil {
			continue // throughput not recorded on one side; nothing to guard
		}
		oc, wc := o.Host.CyclesPerSec, w.Host.CyclesPerSec
		if oc <= 0 || wc <= 0 {
			continue
		}
		ratio := wc / oc
		fmt.Printf("%s: %.3g -> %.3g cycles/s (%.2fx)\n", id, oc, wc, ratio)
		if ratio < 1.0-*tolerance {
			fail("%s: host throughput regressed %.1f%% (limit %.0f%%)",
				id, (1-ratio)*100, *tolerance*100)
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("benchdiff: fig%d OK (%d rows identical, throughput within %.0f%%)\n",
		newB.Figure, n, *tolerance*100)
}
