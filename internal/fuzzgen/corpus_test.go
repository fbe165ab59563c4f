package fuzzgen

import (
	"path/filepath"
	"testing"
)

// TestCorpusReplay re-runs every checked-in fuzzer finding under
// testdata/fuzz across the full execution matrix. Each entry is a
// minimized program that once diverged from the reference; a failure
// here means a fixed compiler or simulator bug has regressed.
func TestCorpusReplay(t *testing.T) {
	files, err := CorpusFiles(filepath.Join("testdata", "fuzz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("corpus is empty; expected checked-in regression programs")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			if err := ReplayFile(path); err != nil {
				t.Error(err)
			}
		})
	}
}
