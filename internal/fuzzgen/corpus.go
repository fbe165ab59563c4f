package fuzzgen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The regression corpus: every minimized finding of FuzzDeterminism is
// checked in as a <name>.c MiniC source plus a <name>.json sidecar
// holding the reference-evaluator expectation (the failure message
// prints both), and replayed as a deterministic unit test
// (internal/fuzzgen/corpus_test.go) on every tier-1 run.

// CorpusEntry is the sidecar metadata of one corpus program.
type CorpusEntry struct {
	// Seed reproduces the originating (pre-shrink) program via
	// Generate; 0 for hand-written entries.
	Seed int64 `json:"seed,omitempty"`
	// MinCores is the smallest machine the program targets.
	MinCores int `json:"min_cores"`
	// Expect maps every checked global to its reference final value
	// (one element for scalars).
	Expect map[string][]int32 `json:"expect"`
}

// ReplayFile checks one corpus program (path to the .c file; the .json
// sidecar sits next to it) across the full execution matrix, 256-core
// rung included, so a finding of a deep fuzz input replays where it
// was found.
func ReplayFile(path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	meta, err := os.ReadFile(strings.TrimSuffix(path, ".c") + ".json")
	if err != nil {
		return err
	}
	var entry CorpusEntry
	if err := json.Unmarshal(meta, &entry); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if entry.MinCores < 1 {
		entry.MinCores = 1
	}
	if _, f := CheckSource(string(src), entry.MinCores, entry.Expect, 256); f != nil {
		return fmt.Errorf("%s: %v", path, f)
	}
	return nil
}

// CorpusFiles lists the .c programs of a corpus directory, sorted.
func CorpusFiles(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.c"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
