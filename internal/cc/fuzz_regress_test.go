package cc

import "testing"

// Regression tests for bugs found by the whole-program determinism
// fuzzer (fuzzgen's FuzzDeterminism). Each case is a minimized MiniC program whose
// machine result once diverged from the sequential reference; the
// corresponding corpus entries live under internal/fuzzgen/testdata/fuzz/.

// TestFoldConstTruncatesToInt32 pins the foldConst fix: constant
// folding used to evaluate in int64, so an overflowed subexpression
// (2000000000 + 2000000000 = 4000000000, which the 32-bit machine
// wraps to -294967296) fed comparisons, divisions and shifts with a
// value the hardware never computes. Folding must observe int32 wrap
// at every step.
func TestFoldConstTruncatesToInt32(t *testing.T) {
	cases := []struct {
		name string
		expr string
		want int32
	}{
		// The three original fuzzer findings: a non-ring operator over
		// an overflowed intermediate. int32(4000000000) = -294967296.
		{"overflow-compare", "(2000000000 + 2000000000) < 0", 1},
		{"overflow-div", "(2000000000 + 2000000000) / 3", -98322432},
		{"overflow-shift", "(2000000000 * 2) >> 4", -18435456},
		// Logical not over the wrapped (nonzero) sum.
		{"overflow-not", "!(2000000000 + 2000000000)", 0},
		// RV32IM division overflow: INT_MIN / -1 = INT_MIN, INT_MIN % -1 = 0.
		{"intmin-div", "(-2147483647 - 1) / -1", -2147483648},
		{"intmin-rem", "(-2147483647 - 1) % -1", 0},
		// Ring ops stay correct under end-truncation; pin them anyway.
		{"overflow-add-chain", "2000000000 + 2000000000 + 2000000000", 1705032704},
		{"shift-mask", "1 << 33", 2}, // shift amounts mask &31
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := "int out;\nvoid main() { out = " + c.expr + "; }\n"
			m, res := compileAndRun(t, 1, src)
			if res.Halt != "exit" {
				t.Fatalf("halt %q", res.Halt)
			}
			v, _ := m.ReadShared(globalAddr(t, src, "out"))
			if int32(v) != c.want {
				t.Errorf("out = %s: machine %d, want %d", c.expr, int32(v), c.want)
			}
		})
	}
}

// TestFoldConstArrayLength checks the fold is still usable where a
// positive constant is required (array lengths, loop bounds).
func TestFoldConstArrayLength(t *testing.T) {
	src := `
int a[2 * 4];
void main() {
	for (int i = 0; i < 8; i++) { a[i] = i + 1; }
}
`
	m, res := compileAndRun(t, 1, src)
	if res.Halt != "exit" {
		t.Fatalf("halt %q", res.Halt)
	}
	got, ok := m.ReadSharedSlice(globalAddr(t, src, "a"), 8)
	if !ok {
		t.Fatal("array unreadable")
	}
	for i, v := range got {
		if int32(v) != int32(i+1) {
			t.Errorf("a[%d] = %d, want %d", i, int32(v), i+1)
		}
	}
}
