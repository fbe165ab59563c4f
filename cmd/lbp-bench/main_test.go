package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
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
				t.Errorf("regenerated %s differs from the tracked record:\n%s", tc.file, got)
			}
		})
	}
}
