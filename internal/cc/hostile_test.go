package cc_test

// Hostile MiniC (POST /jobs compiles text from anyone): every source
// here used to end the process or cost gigabytes. The tests need the
// program generator and the workloads for seeds; both import this
// package, so they live outside it.

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/fuzzgen"
	"repro/internal/workloads"
)

// hostileSource is one source the front end must refuse, scaled by n.
type hostileSource struct {
	name string
	n    int // the size that killed the parent
	src  func(n int) string
	want string // in the *cc.Error
}

func inMain(expr string) string { return "int x;\nvoid main() { x = " + expr + "; }\n" }

// doubling is n object-like macros each mentioning the next twice, the
// last one defined as leaf: a use of A0 expands to 2^n leaves.
func doubling(n int, sep, leaf string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "#define A%d A%d %s A%d\n", i, i+1, sep, i+1)
	}
	fmt.Fprintf(&b, "#define A%d %s\n", n, leaf)
	return b.String()
}

var hostileSources = []hostileSource{
	// 560 bytes, 2^22 terms: 10 s, 2.6 GB, fatal stack overflow in sema.
	{"doubling macros in an expression", 22,
		func(n int) string { return doubling(n, "+", "1") + inMain("A0") }, "deeper than"},
	// The same bomb where nothing nests: 2^22 empty statements.
	{"doubling macros of statements", 22,
		func(n int) string { return doubling(n, "", ";") + "void main() { A0 }\n" }, "expansion of macro"},
	// 2 MB: fatal stack overflow in the recursive-descent parser.
	{"nested parentheses", 1_000_000,
		func(n int) string { return inMain(strings.Repeat("(", n) + "1" + strings.Repeat(")", n)) }, "deeper than"},
	{"unary chain", 1_000_000,
		func(n int) string { return inMain(strings.Repeat("-", n) + "1") }, "deeper than"},
	{"nested blocks", 1_000_000,
		func(n int) string { return "void main() " + strings.Repeat("{", n) + strings.Repeat("}", n) + "\n" }, "deeper than"},
	// 3 MB, no macros, no nesting: the parser builds the left-deep tree
	// iteratively and sema, foldConst and codegen recurse down it.
	{"binary chain", 1_500_000,
		func(n int) string { return inMain("1" + strings.Repeat("+1", n)) }, "deeper than"},
	{"postfix chain", 1_000_000,
		func(n int) string { return inMain("x" + strings.Repeat("[0]", n)) }, "deeper than"},
	{"assignment chain", 1_000_000,
		func(n int) string { return inMain(strings.Repeat("x=", n) + "1") }, "deeper than"},
	{"macros nested, not doubled", 20_000,
		func(n int) string {
			var b strings.Builder
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, "#define A%d A%d\n", i, i+1)
			}
			return b.String() + inMain("A0")
		}, "expansion of macro"},
	// Found by FuzzCompile's first run: 170 bytes panicked the code
	// generator ("expression too deep for the spill area").
	{"right-nested operands", 40,
		func(n int) string { return inMain(strings.Repeat("x+(", n) + "x" + strings.Repeat(")", n)) }, "spilled temporaries"},
	// Six bytes: the parser looked two tokens past "struct" without
	// asking whether there were two (index out of range).
	{"struct at end of input", 1,
		func(int) string { return "struct" }, "expected identifier"},
	// 38 bytes: a 762 MB dense image before any size check.
	{"initialized global", 100_000_000,
		func(n int) string { return fmt.Sprintf("int a[%d] = {1};\nvoid main() {}\n", n) }, "larger than"},
	// A function or a global named like a label of the runtime used to
	// compile without a word: a user's LBP_parallel_start kept the
	// runtime out and was called as the team launcher.
	{"function named like the team launcher", 1,
		func(int) string {
			return "int out[4];\nint LBP_parallel_start(int x) { return x; }\nvoid main() {\n\tint t;\n" +
				"#pragma omp parallel for\n\tfor (t = 0; t < 4; t++) out[t] = t;\n}\n"
		}, `"LBP_parallel_start" is a symbol of the Deterministic OpenMP runtime`},
	{"global named like a runtime label", 1,
		func(int) string { return "int x;\nint Lps_send;\nvoid main() { x = 1; }\n" },
		`"Lps_send" is a symbol of the Deterministic OpenMP runtime`},
}

// TestHostileSources: each source is refused with a *cc.Error carrying a
// line, at once, having allocated little more than the text it was
// handed — the lexer is pulled by the parser, so a source is not even
// tokenized past the point of refusal. That last claim is checked on
// the lexer itself, which holds under -race too; the 100 ms wall bound
// is asserted only without the race detector, which slows the front
// end past it on a small host.
func TestHostileSources(t *testing.T) {
	for _, h := range hostileSources {
		t.Run(h.name, func(t *testing.T) {
			src := h.src(h.n)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			_, err := cc.BuildProgram(src, cc.DefaultOptions())
			took := time.Since(start)
			runtime.ReadMemStats(&after)
			var ce *cc.Error
			if !errors.As(err, &ce) || ce.Line == 0 || !strings.Contains(ce.Msg, h.want) {
				t.Fatalf("error %v (%T), want a *cc.Error with a line saying %q", err, err, h.want)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d-byte source: %v, %d KiB allocated: %v", len(src), took, alloc>>10, err)
			if !raceEnabled && took > 100*time.Millisecond {
				t.Errorf("refusal took %v", took)
			}
			// A source the parser refuses was lexed to within a line, and
			// a few bytes, of the refusal (one the parser accepts is
			// refused later and had to be read whole).
			var pe *cc.Error
			if off, err := cc.ParseOffset(src); errors.As(err, &pe) {
				at := refusalOffset(src, pe)
				if off < at || off-at > 64 || strings.Count(src[at:off], "\n") > 1 {
					t.Errorf("the lexer stopped at byte %d, the refusal is at byte %d (%v)", off, at, pe)
				}
			}
			if limit := uint64(64<<20 + 4*len(src)); alloc > limit {
				t.Errorf("refusal allocated %d bytes for a %d-byte source", alloc, len(src))
			}
		})
	}
}

// refusalOffset is the byte offset of an error's line and column in src.
func refusalOffset(src string, e *cc.Error) int {
	at := 0
	for line := 1; line < e.Line; line++ {
		at += strings.IndexByte(src[at:], '\n') + 1
	}
	return at + e.Col - 1
}

// TestDefineLinesDoNotRecurse: directive lines are consumed in a loop.
// The lexer used to recurse once per consecutive #define line — 650 k of
// them were 860 MB of stack before the first token came back.
func TestDefineLinesDoNotRecurse(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100_000; i++ {
		fmt.Fprintf(&b, "#define D%d %d\n", i, i)
	}
	b.WriteString("int x;\nvoid main() { x = D99999; }\n")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	text, err := cc.BuildProgram(b.String(), cc.DefaultOptions())
	runtime.ReadMemStats(&after)
	if err != nil || !strings.Contains(text, "99999") {
		t.Fatalf("err %v, text %.200q", err, text)
	}
	if grown := int64(after.StackInuse) - int64(before.StackInuse); grown > 8<<20 {
		t.Errorf("the stack grew by %d MiB over 100,000 #define lines", grown>>20)
	}
}

// TestBoundsLeaveRoom: what the bounds refuse is far from what programs
// do. Half of maxDepth in parentheses, in a chain, and in both at once
// (the case a counter that forgot chains on the way out would let grow
// quadratically) still compile.
func TestBoundsLeaveRoom(t *testing.T) {
	for name, expr := range map[string]string{
		"parentheses": strings.Repeat("(", 4000) + "x" + strings.Repeat(")", 4000),
		"chain":       "x" + strings.Repeat("+1", 4000),
		"both":        strings.Repeat("(", 60) + "x" + strings.Repeat(strings.Repeat("+x", 60)+")", 60),
	} {
		if _, err := cc.Build(inMain(expr), cc.DefaultOptions()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// ... and one level more than the chains allow is refused even when
	// no single chain or nest is long: 100 nests of 100-operator chains.
	expr := strings.Repeat("(", 100) + "x" + strings.Repeat(strings.Repeat("+x", 100)+")", 100)
	if _, err := cc.Build(inMain(expr), cc.DefaultOptions()); err == nil {
		t.Error("a 10,000-deep tree made of short chains compiled")
	}
}

// fuzzgenSource renders one generated program and the options it needs.
func fuzzgenSource(seed int64) (string, cc.Options) {
	p := fuzzgen.Generate(seed, fuzzgen.GenConfig{})
	opt := cc.DefaultOptions()
	opt.Cores = p.MinCores
	return p.Render(), opt
}

// benchJobs is the stream the serving benchmark sends (bench/lbp-load's
// cold jobs): generated OpenMP programs.
func benchJobs() (srcs []string, opts []cc.Options) {
	for seed := int64(1); seed <= 20; seed++ {
		src, opt := fuzzgenSource(seed)
		srcs, opts = append(srcs, src), append(opts, opt)
	}
	return srcs, opts
}

// BenchmarkBuild is what a cold job pays before the simulator: source to
// program through the statement list, no text. BenchmarkBuildProgram is
// compile plus rendering (lbp-cc, and the text bench/ replays), and
// internal/asm's BenchmarkAssemble is the text door over its output.
func BenchmarkBuild(b *testing.B) {
	srcs, opts := benchJobs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cc.Build(srcs[i%len(srcs)], opts[i%len(srcs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildProgram(b *testing.B) {
	srcs, opts := benchJobs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cc.BuildProgram(srcs[i%len(srcs)], opts[i%len(srcs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzCompile: any source text gets a *cc.Error, or code that the
// assembler takes or refuses with an *asm.Error — the same image or the
// same error whether it gets the statements or their text
// (sameAtBothDoors); never a panic, never more than a bounded time.
func FuzzCompile(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		src, _ := fuzzgenSource(seed)
		f.Add(src)
	}
	for _, v := range workloads.Variants {
		src, err := workloads.MatmulSource(v, 16)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add(workloads.SensorFusionSource(2))
	vecsum, err := os.ReadFile("../../testdata/vecsum.c")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(vecsum))
	for _, h := range hostileSources {
		n := h.n
		for len(h.src(n)) > 16<<10 { // cut to fit a fuzz input
			n /= 2
		}
		f.Add(h.src(n))
	}
	opt := cc.DefaultOptions()
	opt.Cores = 4
	f.Fuzz(func(t *testing.T, src string) {
		start := time.Now()
		refused, diff := sameAtBothDoors(src, opt)
		if diff != nil {
			t.Fatal(diff)
		}
		var ce *cc.Error
		var ae *asm.Error
		if refused != nil && !errors.As(refused, &ce) && !errors.As(refused, &ae) {
			t.Fatalf("error %v (%T) is neither a *cc.Error nor an *asm.Error", refused, refused)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("took %v", d)
		}
	})
}
