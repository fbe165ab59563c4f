package cc

import (
	"strings"
	"testing"

	"repro/internal/asm"
)

// peepholeLines runs the peephole over the statements of the given
// assembly lines and returns what is left, one rendered line each.
func peepholeLines(t *testing.T, lines []string) []string {
	t.Helper()
	l, err := asm.Parse(strings.Join(lines, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := l.Stmts[1:] // past the statement that holds the text
	left := asm.List{Stmts: s[:peephole(s)]}
	return strings.Split(strings.TrimSuffix(left.String(), "\n"), "\n")
}

func TestPeepholeForwardProp(t *testing.T) {
	in := []string{
		"\tmv t1, s0",
		"\tlw t1, 0(t1)",
	}
	out := peepholeLines(t, in)
	if len(out) != 1 || strings.TrimSpace(out[0]) != "lw t1, 0(s0)" {
		t.Errorf("got %q", out)
	}
}

func TestPeepholeBackwardCollapse(t *testing.T) {
	in := []string{
		"\taddi t1, s0, 4",
		"\tmv s0, t1",
		"\tli t1, 0", // t1 dead between mv and redefinition
	}
	out := peepholeLines(t, in)
	if len(out) != 2 || strings.TrimSpace(out[0]) != "addi s0, s0, 4" {
		t.Errorf("got %q", out)
	}
}

func TestPeepholeBranchConsumesCopy(t *testing.T) {
	// A temp is dead past a statement boundary, so the copy folds into
	// the branch that consumes it.
	in := []string{
		"\tmv t1, s0",
		"\tbeq t1, zero, .Lx",
	}
	out := peepholeLines(t, in)
	if len(out) != 1 || strings.TrimSpace(out[0]) != "beq s0, zero, .Lx" {
		t.Errorf("got %q", out)
	}
}

func TestPeepholeLabelStopsProp(t *testing.T) {
	in := []string{
		"\tmv t1, s0",
		".Lx:", // x may be live-in at a label: the copy must survive
		"\tadd t2, t1, t1",
		"\tli t1, 0",
	}
	out := peepholeLines(t, in)
	if strings.TrimSpace(out[0]) != "mv t1, s0" {
		t.Errorf("got %q", out)
	}
}

func TestPeepholeSourceOverwriteAborts(t *testing.T) {
	in := []string{
		"\tmv t1, s0",
		"\taddi s0, s0, 4", // y changes while x live
		"\tadd t2, t1, t1",
		"\tli t1, 0",
	}
	out := peepholeLines(t, in)
	if strings.TrimSpace(out[0]) != "mv t1, s0" {
		t.Errorf("mv must survive: %q", out)
	}
}

func TestPeepholeStoreUse(t *testing.T) {
	in := []string{
		"\tmv t1, s3",
		"\tsw t1, 0(t2)",
		"\tli t1, 7",
	}
	out := peepholeLines(t, in)
	if len(out) != 2 || strings.TrimSpace(out[0]) != "sw s3, 0(t2)" {
		t.Errorf("got %q", out)
	}
}

func TestPeepholeMemBaseUse(t *testing.T) {
	in := []string{
		"\tmv t2, s1",
		"\tsw s0, 4(t2)",
		"\tli t2, 0",
	}
	out := peepholeLines(t, in)
	if len(out) != 2 || strings.TrimSpace(out[0]) != "sw s0, 4(s1)" {
		t.Errorf("got %q", out)
	}
}

// The paper's 7-instruction inner loop (2 loads, mul, add, 2 increments,
// branch): our compiled pointer-walk kernel must stay within 10
// instructions per iteration.
func TestInnerLoopQuality(t *testing.T) {
	asmText, err := BuildProgram(`
int X[64] = {[0 ... 63] = 1};
int Y[64] = {[0 ... 63] = 1};
int out;
void main() {
	int *px;
	int *py;
	int *xe;
	int tmp;
	px = X;
	py = Y;
	xe = X + 64;
	tmp = 0;
	while (px < xe) {
		tmp = tmp + *px * *py;
		px = px + 1;
		py = py + 1;
	}
	out = tmp;
}
`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(asmText, "\n")
	// find the while-loop body: between the "while" label and its branch
	start, end := -1, -1
	for i, l := range lines {
		if strings.HasPrefix(l, ".Lwhile") {
			start = i
		}
		if start >= 0 && strings.Contains(l, "j .Lwhile") {
			end = i
			break
		}
	}
	if start < 0 || end < 0 {
		t.Fatalf("loop not found in:\n%s", asmText)
	}
	count := 0
	for _, l := range lines[start:end] {
		l = strings.TrimSpace(l)
		if l != "" && !strings.HasSuffix(l, ":") && !strings.HasPrefix(l, "#") {
			count++
		}
	}
	if count > 10 {
		t.Errorf("inner loop has %d instructions, want <= 10:\n%s",
			count, strings.Join(lines[start:end+1], "\n"))
	}
}
