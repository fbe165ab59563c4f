package lbp

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

const decodeTestProg = "main:\n\tli ra, 0\n\tli t0, -1\n\taddi a0, zero, 7\n\tp_ret\n"

// checkImage requires the machine's descriptor image to be exactly the
// decode of the first n words of its code bank, and nothing to resolve
// past them.
func checkImage(t *testing.T, label string, m *Machine, n int) {
	t.Helper()
	if len(m.descs) != n {
		t.Fatalf("%s: image holds %d descriptors, want %d", label, len(m.descs), n)
	}
	for i, w := range m.Mem.Code(n) {
		d := m.descAt(uint32(4 * i))
		if d == nil {
			t.Fatalf("%s: word %d does not resolve", label, i)
		}
		if ref := isa.DecodeDesc(w); *d != ref {
			t.Fatalf("%s: word %d (%#08x): descAt = %+v, DecodeDesc = %+v", label, i, w, *d, ref)
		}
	}
	if d := m.descAt(uint32(4 * n)); d != nil {
		t.Errorf("%s: pc past the image resolves to %+v", label, *d)
	}
}

// TestLoadDecodesCodeBank: every way code gets into a machine — a load,
// a second load on top, a Reset to a shorter program, a checkpoint
// restore — leaves the descriptor image equal to the decode of the code
// bank, and a warm Reset reuses the image's storage.
func TestLoadDecodesCodeBank(t *testing.T) {
	assemble := func(src string, base uint32) *asm.Program {
		t.Helper()
		p, err := asm.Assemble(src, asm.Options{TextBase: base})
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		return p
	}
	short := assemble(decodeTestProg, 0)
	long := assemble("main:\n\tli ra, 0\n\tli t0, -1\n\tmul a0, a1, a2\n\tlw a3, 0(sp)\n\tbne a0, a3, main\n\tp_ret\n", 0)
	high := assemble(decodeTestProg, 0x100) // leaves a gap of zero words above long

	m := New(DefaultConfig(2))
	if err := m.LoadProgram(long); err != nil {
		t.Fatalf("load: %v", err)
	}
	checkImage(t, "after LoadProgram", m, len(long.Text))
	if got := m.descAt(long.Entry).Inst.Raw; got != long.Text[0] {
		t.Errorf("entry descriptor decodes %#08x, the program starts with %#08x", got, long.Text[0])
	}

	if err := m.LoadProgram(high); err != nil {
		t.Fatalf("second load: %v", err)
	}
	checkImage(t, "after a second LoadProgram on top", m, 0x100/4+len(high.Text))
	if op := m.descAt(4 * uint32(len(long.Text))).Op(); op != isa.OpInvalid {
		t.Errorf("gap word between the two programs decodes to %v", op)
	}

	cp, err := m.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	restored, err := Restore(cp)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	checkImage(t, "after Restore", restored, len(m.descs))

	if err := m.Reset(short); err != nil {
		t.Fatalf("reset: %v", err)
	}
	checkImage(t, "after Reset to a shorter program", m, len(short.Text))
	if _, err := m.Run(100000); err != nil {
		t.Fatalf("run after reset: %v", err)
	}

	// A warm Reset decodes into the storage the machine already has:
	// alternating between a long and a short program allocates nothing.
	progs := [2]*asm.Program{long, short}
	i := 0
	if n := testing.AllocsPerRun(20, func() {
		if err := m.Reset(progs[i%2]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("a warm Reset allocates %v times, want 0", n)
	}
}

// TestDescAt: descriptor lookups refuse what fetch must fault on.
func TestDescAt(t *testing.T) {
	p, err := asm.Assemble(decodeTestProg, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(DefaultConfig(1))
	if d := m.descAt(0); d != nil {
		t.Error("a machine with no program resolves pc 0")
	}
	if err := m.LoadProgram(p); err != nil {
		t.Fatalf("load: %v", err)
	}
	if d := m.descAt(2); d != nil {
		t.Error("misaligned pc must not resolve")
	}
	if d := m.descAt(p.TextBase); d == nil || d.Inst.Raw != p.Text[0] {
		t.Errorf("entry pc resolves to %+v, want the decode of %#08x", d, p.Text[0])
	}
}
