// benchdiff compares two BENCH_fig<N>.json records produced by lbp-bench.
//
// A record holds simulated results only, and those are deterministic, so
// any change in cycles, retired instructions, access mix, trace digests,
// event counts or (when both records were taken with -profile) perf
// snapshots between the two records is a failure — the simulator's
// behavior drifted. How fast the simulator runs is not in a record; it
// is measured by bench/ (sim_cycles_per_s, scripts/abpairs.sh).
//
// Usage:
//
//	benchdiff old.json new.json
//
// Exit status: 0 when the records agree, 1 on any simulated difference
// or a record without rows, 2 on usage errors.
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
	Figure int           `json:"figure"`
	Rows   []figures.Row `json:"rows"`
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
	flag.Parse() // no flags: -h prints the usage, anything else is refused by name
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff old.json new.json")
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
	// Two empty records (or two files that are not records at all) have
	// nothing to disagree on, which is not the same as agreeing.
	if len(oldB.Rows) == 0 || len(newB.Rows) == 0 {
		fail("a record has no rows")
	}
	n := len(oldB.Rows)
	if len(newB.Rows) < n {
		n = len(newB.Rows)
	}
	for i := 0; i < n; i++ {
		o, w := oldB.Rows[i], newB.Rows[i]
		if o.Label != w.Label || o.Harts != w.Harts {
			fail("row %d identity changed: %s/%d vs %s/%d", i, o.Label, o.Harts, w.Label, w.Harts)
			continue
		}
		id := fmt.Sprintf("row %s/%d", o.Label, o.Harts)
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
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("benchdiff: fig%d OK (%d rows identical)\n", newB.Figure, n)
}
