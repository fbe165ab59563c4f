package fuzzgen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDeterminism is the paper's claim as a fuzz target: a generated
// MiniC + Deterministic OpenMP program must compute the sequential
// reference evaluator's values on every machine of the cores ladder,
// with fast-forward on and off, and all runs on one machine must share
// one trace digest. deep raises the ladder's cap from 4 to 256 cores (a
// three-level router tree). The seed corpus is two fixed campaigns, 50
// programs on the small ladder and 5 on the deep one (198 + 30
// simulated runs), so plain go test checks them on every run, and
//
//	go test ./internal/fuzzgen -run '^$' -fuzz FuzzDeterminism -fuzzminimizetime 1s
//
// explores from there. A divergence is shrunk and the failure prints
// the minimized program's .c source and .json sidecar: check both in
// under testdata/fuzz/, where TestCorpusReplay replays them.
func FuzzDeterminism(f *testing.F) {
	for _, seed := range subSeeds(1, 50) {
		f.Add(seed, false)
	}
	for _, seed := range subSeeds(2, 5) {
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, deep bool) {
		maxCores := 4
		if deep {
			maxCores = 256
		}
		p := Generate(seed, GenConfig{})
		runs, fail := Check(p, maxCores)
		t.Logf("seed %d deep=%v: %d runs", seed, deep, runs)
		if fail == nil {
			return
		}
		min := Shrink(p, func(q *Prog) bool {
			_, qf := Check(q, maxCores)
			return qf != nil
		}, 300)
		if _, mf := Check(min, maxCores); mf != nil {
			p, fail = min, mf
		}
		name := fmt.Sprintf("fuzz-%d", seed)
		t.Fatalf("%s: %s\n--- %s.c ---\n%s--- %s.json ---\n%s",
			fail.Stage, fail.Detail, name, p.Render(), name, sidecar(p))
	})
}

// sidecar renders p's corpus entry: the .json file that sits next to
// its .c source under testdata/fuzz/.
func sidecar(p *Prog) string {
	// A struct of ints and a map of int slices always marshals.
	meta, _ := json.MarshalIndent(CorpusEntry{Seed: p.Seed, MinCores: p.MinCores, Expect: p.Eval()}, "", "  ")
	return string(meta) + "\n"
}

// TestFindingReplays checks a program in the way FuzzDeterminism's
// failure message asks: its source and sidecar, written side by side,
// pass ReplayFile, and the same source under a sidecar with one wrong
// value does not.
func TestFindingReplays(t *testing.T) {
	p := Generate(subSeeds(2, 1)[0], GenConfig{})
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.c", p.Render())
	write("good.json", sidecar(p))
	if err := ReplayFile(good); err != nil {
		t.Fatalf("the printed finding does not replay: %v", err)
	}

	var entry CorpusEntry
	if err := json.Unmarshal([]byte(sidecar(p)), &entry); err != nil {
		t.Fatal(err)
	}
	for _, want := range entry.Expect {
		want[0]++
		break
	}
	meta, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	bad := write("bad.c", p.Render())
	write("bad.json", string(meta))
	if err := ReplayFile(bad); err == nil {
		t.Fatal("a sidecar with a wrong value replayed clean")
	}
}

// subSeeds expands one master seed into n independent program seeds.
func subSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	s := uint64(seed)
	for i := range out {
		// splitmix64: decorrelates adjacent master seeds.
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		out[i] = int64((z ^ (z >> 31)) &^ (1 << 63))
	}
	return out
}
