package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestBenchRecordsReproduce is the fixed contract as a test: the tracked
// records hold simulated quantities only, so regenerating one — on this
// host, with whatever worker count it has — must reproduce the file
// byte for byte. A difference means the simulator's behaviour changed
// (cycles, digests, the access mix) or the record format did; either
// way the record is re-recorded on purpose or the change is a bug.
func TestBenchRecordsReproduce(t *testing.T) {
	for _, tc := range []struct {
		file string
		long bool
		run  func(*bench) error
	}{
		{file: "BENCH_fig19.json", run: func(b *bench) error { return b.matmulFigure(16) }},
		{file: "BENCH_fig20.json", run: func(b *bench) error { return b.matmulFigure(64) }},
		{file: "BENCH_fig22.json", long: true, run: (*bench).scaleFigure},
	} {
		t.Run(tc.file, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("the 1024-core row takes seconds")
			}
			t.Parallel()
			b := &bench{out: io.Discard, outdir: t.TempDir()}
			if err := tc.run(b); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(b.outdir, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("regenerated %s differs from the tracked record: %s", tc.file, firstDiff(got, want))
			}
		})
	}
}

// firstDiff names the first value in which a regenerated record differs
// from the tracked one, by its path (rows[2].Cycles) and both values.
func firstDiff(got, want []byte) string {
	g, err := decodeRecord(got)
	if err != nil {
		return "regenerated: " + err.Error()
	}
	w, err := decodeRecord(want)
	if err != nil {
		return "tracked: " + err.Error()
	}
	if d := diffValue("record", g, w); d != "" {
		return d
	}
	return "same values, different bytes"
}

// decodeRecord reads a record as plain JSON values, numbers kept as
// text: a digest does not survive float64.
func decodeRecord(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	err := dec.Decode(&v)
	return v, err
}

func diffValue(path string, got, want any) string {
	switch g := got.(type) {
	case map[string]any:
		w, ok := want.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(g)+len(w))
		for k := range g {
			keys = append(keys, k)
		}
		for k := range w {
			if _, ok := g[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d := diffValue(path+"."+k, g[k], w[k]); d != "" {
				return d
			}
		}
		return ""
	case []any:
		w, ok := want.([]any)
		if !ok {
			break
		}
		for i := 0; i < len(g) && i < len(w); i++ {
			if d := diffValue(fmt.Sprintf("%s[%d]", path, i), g[i], w[i]); d != "" {
				return d
			}
		}
		if len(g) != len(w) {
			return fmt.Sprintf("%s: %d entries, tracked %d", path, len(g), len(w))
		}
		return ""
	default:
		if got == want {
			return ""
		}
	}
	return fmt.Sprintf("%s: %v, tracked %v", path, got, want)
}

// TestFirstDiff: a record with one field changed is reported by that
// field alone, not as the whole file.
func TestFirstDiff(t *testing.T) {
	tracked, err := os.ReadFile(filepath.Join("..", "..", "BENCH_fig19.json"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeRecord(tracked)
	if err != nil {
		t.Fatal(err)
	}
	row := rec.(map[string]any)["rows"].([]any)[2].(map[string]any)
	want := fmt.Sprintf("record.rows[2].Cycles: 1, tracked %v", row["Cycles"])
	row["Cycles"] = json.Number("1")
	changed, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := firstDiff(changed, tracked); got != want {
		t.Errorf("firstDiff = %q, want %q", got, want)
	}
	if got := firstDiff(tracked, tracked); got != "same values, different bytes" {
		t.Errorf("firstDiff of a record and itself = %q", got)
	}
}
