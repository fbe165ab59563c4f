package cc

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/detomp"
)

// Unit tests of the OpenMP transform itself (omp.go): pragma
// classification, loop-shape validation and reduction-clause parsing.

func TestPragmaKind(t *testing.T) {
	cases := map[string]string{
		"omp parallel for":                  "parallel for",
		"omp parallel for reduction(+:x)":   "parallel for",
		"omp parallel for schedule(static)": "parallel for",
		"omp  parallel   for":               "parallel for",
		"omp parallel sections":             "parallel sections",
		"omp section":                       "section",
		"omp barrier":                       "barrier",
		"GCC ivdep":                         "ignored",
		"once":                              "ignored",
	}
	for prag, want := range cases {
		if got := pragmaKind(prag); got != want {
			t.Errorf("pragmaKind(%q) = %q, want %q", prag, got, want)
		}
	}
}

func TestReductionClause(t *testing.T) {
	op, name, ok, err := reductionClause("omp parallel for reduction(+:total)")
	if err != nil || !ok || op != "+" || name != "total" {
		t.Errorf("got %q %q %v %v", op, name, ok, err)
	}
	op, name, ok, err = reductionClause("omp parallel for reduction( * : p )")
	if err != nil || !ok || op != "*" || name != "p" {
		t.Errorf("got %q %q %v %v", op, name, ok, err)
	}
	if _, _, ok, _ := reductionClause("omp parallel for"); ok {
		t.Error("no clause must report ok=false")
	}
	if _, _, _, err := reductionClause("omp parallel for reduction(min:x)"); err == nil {
		t.Error("unsupported operator must error")
	}
	if _, _, _, err := reductionClause("omp parallel for reduction(+x)"); err == nil {
		t.Error("malformed clause must error")
	}
}

func TestLoopShapeVariants(t *testing.T) {
	accepted := []string{
		"for (t = 0; t < 8; t++) g = t;",
		"for (t = 0; t < 8; ++t) g = t;",
		"for (t = 0; t <= 7; t += 1) g = t;",
		"for (t = 2; t < 8; t = t + 1) g = t;",
		"for (int t = 0; t < N; t++) g = t;",
	}
	for _, loop := range accepted {
		src := "#define N 8\nint g;\nvoid main() { int t;\n#pragma omp parallel for\n" +
			loop + "\n}"
		if _, err := BuildProgram(src, DefaultOptions()); err != nil {
			t.Errorf("loop %q rejected: %v", loop, err)
		}
	}
	rejected := []struct{ loop, wantSub string }{
		{"for (t = g; t < 8; t++) g = t;", "constant"},
		{"for (t = 0; t > 8; t++) g = t;", "condition"},
		{"for (t = 0; t < 8; t += 2) g = t;", "increment"},
		{"for (t = 0; t < 8; t--) g = t;", "increment"},
		{"for (; t < 8; t++) g = t;", "initialization"},
		{"for (t = 0; q < 8; t++) g = t;", "condition"},
	}
	for _, c := range rejected {
		src := "int g;\nint q;\nvoid main() { int t;\n#pragma omp parallel for\n" +
			c.loop + "\n}"
		_, err := BuildProgram(src, DefaultOptions())
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("loop %q: err = %v, want containing %q", c.loop, err, c.wantSub)
		}
	}
}

func TestSectionsValidation(t *testing.T) {
	_, err := BuildProgram(`
void main() {
	#pragma omp parallel sections
	{
		int stray;
	}
}`, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "before the first") {
		t.Errorf("stray statement: %v", err)
	}
	_, err = BuildProgram(`
void main() {
	#pragma omp parallel sections
	{
	}
}`, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "without any") {
		t.Errorf("empty sections: %v", err)
	}
	_, err = BuildProgram(`
void main() {
	#pragma omp parallel sections
	while (1) {}
}`, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "must precede a block") {
		t.Errorf("non-block: %v", err)
	}
}

func TestNestedPragmaInsideIf(t *testing.T) {
	// pragmas inside nested statements are found by the walker
	asmText, err := BuildProgram(`
int v[4];
void main() {
	int enable;
	enable = 1;
	if (enable) {
		int t;
		#pragma omp parallel for
		for (t = 0; t < 4; t++) v[t] = t;
	}
}`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(asmText, "LBP_parallel_start") {
		t.Error("nested pragma not lowered")
	}
}

func TestUnsupportedOmpPragma(t *testing.T) {
	_, err := BuildProgram(`
void main() {
	#pragma omp critical
	{ }
}`, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "unsupported pragma") {
		t.Errorf("err = %v", err)
	}
}

func TestOutlinedFunctionNamesUnique(t *testing.T) {
	asmText, err := BuildProgram(`
int a[4];
int b[4];
void main() {
	int t;
	#pragma omp parallel for
	for (t = 0; t < 4; t++) a[t] = t;
	#pragma omp parallel for
	for (t = 0; t < 4; t++) b[t] = t;
}`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(asmText, "__omp_body_1_main") ||
		!strings.Contains(asmText, "__omp_body_2_main") {
		t.Error("outlined bodies must get distinct names")
	}
}

// TestRuntimeSymbolsReserved: a function (defined or only declared) or a
// global named like any label of the runtime is refused by name and
// line; a local of that name is no label and compiles.
func TestRuntimeSymbolsReserved(t *testing.T) {
	for _, name := range detomp.RuntimeSymbols() {
		for _, decl := range []string{"int %s(int x) { return x; }", "int %s(int x);", "int %s;"} {
			src := "int g;\n" + fmt.Sprintf(decl, name) + "\nvoid main() { g = 1; }\n"
			_, err := BuildProgram(src, DefaultOptions())
			var ce *Error
			if !errors.As(err, &ce) || ce.Line != 2 || !strings.Contains(ce.Msg, strconv.Quote(name)) {
				t.Errorf("%q: error %v, want a *cc.Error at line 2 naming %s", src, err, name)
			}
		}
		src := "int g;\nvoid main() { int " + name + "; " + name + " = 1; g = " + name + "; }\n"
		if _, err := Build(src, DefaultOptions()); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}
