package fuzzgen

import (
	"strings"
	"testing"

	"repro/internal/cc"
)

// TestGenerateDeterministic pins that the generator is a pure function
// of its seed: fuzz inputs and corpus sidecars are reproducible from
// Prog.Seed alone.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 42, 0x9E3779B9} {
		a := Generate(seed, GenConfig{})
		b := Generate(seed, GenConfig{})
		if a.Render() != b.Render() {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		if a.MinCores != b.MinCores {
			t.Fatalf("seed %d: MinCores %d != %d", seed, a.MinCores, b.MinCores)
		}
	}
	if Generate(1, GenConfig{}).Render() == Generate(2, GenConfig{}).Render() {
		t.Fatal("seeds 1 and 2 generated the identical program")
	}
}

// TestGeneratedProgramsCompile checks a wide band of seeds render to
// MiniC the compiler accepts: the generator must stay inside the
// dialect (capture rules, trip bounds, __bank placement).
func TestGeneratedProgramsCompile(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p := Generate(seed, GenConfig{})
		opt := cc.DefaultOptions()
		opt.Cores = p.MinCores
		if _, err := cc.BuildProgram(p.Render(), opt); err != nil {
			t.Errorf("seed %d does not compile: %v\nsource:\n%s", seed, err, p.Render())
		}
	}
}

// TestCheckRejectsWrongExpectation makes sure the checker actually
// compares values: a deliberately wrong reference must fail, and a
// right one passes with fast-forward on and off.
func TestCheckRejectsWrongExpectation(t *testing.T) {
	src := "int out;\nvoid main() { out = 7; }\n"
	runs, f := CheckSource(src, 1, State{"out": {7}}, 1)
	if f != nil {
		t.Fatalf("correct expectation rejected: %v", f)
	}
	if runs != 2 {
		t.Fatalf("%d runs on one machine, want 2 (fast-forward on and off)", runs)
	}
	_, f = CheckSource(src, 1, State{"out": {8}}, 1)
	if f == nil {
		t.Fatal("wrong expectation accepted")
	}
	if f.Stage != "value" {
		t.Fatalf("stage %q, want value", f.Stage)
	}
}

// TestShrinkMinimizes drives the shrinker with a structural predicate
// and checks the result is both smaller and still failing.
func TestShrinkMinimizes(t *testing.T) {
	p := Generate(7, GenConfig{MinCores: 2, MaxStmts: 10})
	// Predicate: the program still contains a parallel for. Shrinking
	// must preserve it while stripping everything else it can.
	failing := func(q *Prog) bool {
		found := false
		walkStmts(q.Stmts, func(s Stmt) {
			if _, ok := s.(*ParFor); ok {
				found = true
			}
		})
		return found
	}
	min := Shrink(p, failing, 500)
	if !failing(min) {
		t.Fatal("shrunk program no longer satisfies the predicate")
	}
	if len(min.Stmts) > 1 {
		t.Errorf("shrink kept %d top-level statements, want 1:\n%s",
			len(min.Stmts), min.Render())
	}
	if failing(p) && len(min.Render()) > len(p.Render()) {
		t.Errorf("shrink grew the program: %d -> %d bytes",
			len(p.Render()), len(min.Render()))
	}
	// The original must be untouched (Shrink works on a clone).
	if p.Render() != Generate(7, GenConfig{MinCores: 2, MaxStmts: 10}).Render() {
		t.Error("Shrink mutated its input program")
	}
}

// TestEvalRV32IMEdges pins the reference evaluator's divide, remainder
// and shift semantics to the machine's (internal/lbp/exec.go).
func TestEvalRV32IMEdges(t *testing.T) {
	const minInt32 = -2147483648
	cases := []struct {
		op      string
		l, r, w int32
	}{
		{"/", 7, 0, -1},
		{"/", minInt32, -1, minInt32},
		{"%", 7, 0, 7},
		{"%", minInt32, -1, 0},
		{"<<", 1, 33, 2},
		{">>", minInt32, 31, -1},
		{">>", -1, 100, -1 >> 4}, // 100 & 31 == 4
	}
	for _, c := range cases {
		if got := applyBin(c.op, c.l, c.r); got != c.w {
			t.Errorf("applyBin(%q, %d, %d) = %d, want %d", c.op, c.l, c.r, got, c.w)
		}
	}
}

// TestRenderContainsPragmas sanity-checks the rendered dialect shape.
func TestRenderContainsPragmas(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		src := Generate(seed, GenConfig{}).Render()
		if !strings.Contains(src, "#pragma omp parallel") {
			t.Errorf("seed %d rendered no parallel construct:\n%s", seed, src)
		}
		if !strings.Contains(src, "void main()") {
			t.Errorf("seed %d rendered no main:\n%s", seed, src)
		}
	}
}
