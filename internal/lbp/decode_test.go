package lbp

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

const decodeTestProg = "main:\n\tli ra, 0\n\tli t0, -1\n\taddi a0, zero, 7\n\tp_ret\n"

// checkImage requires the machine's descriptor image to be exactly the
// decode of the first n words of its code bank (zero past the bank's
// written prefix), and nothing to resolve past them.
func checkImage(t *testing.T, label string, m *Machine, n int) {
	t.Helper()
	if len(m.descs) != n {
		t.Fatalf("%s: image holds %d descriptors, want %d", label, len(m.descs), n)
	}
	code := m.Mem.Code()
	for i := range n {
		var w uint32
		if i < len(code) {
			w = code[i]
		}
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

// TestPooledCodeCapacity: a machine reused across programs holds a code
// array of the largest image it ran — its end, for a program above a
// text base — not the code bank.
func TestPooledCodeCapacity(t *testing.T) {
	var progs []*asm.Program
	for _, base := range []uint32{0, 0x400, 0, 0x40} {
		p, err := asm.Assemble(decodeTestProg, asm.Options{TextBase: base})
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		progs = append(progs, p)
	}
	m := New(DefaultConfig(2))
	if err := m.LoadProgram(progs[0]); err != nil {
		t.Fatal(err)
	}
	for _, p := range progs[1:] {
		if err := m.Reset(p); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := cap(m.Mem.Code()), 0x400/4+len(progs[1].Text); got != want {
		t.Errorf("code capacity %d words after four programs, want the largest image's end, %d", got, want)
	}
}

// TestRestoreDecodesPastCodePrefix: a checkpoint's code image drops the
// bank's trailing zeros, so its decoded length can exceed it; restore
// decodes the words past the prefix as the zero word, OpInvalid.
func TestRestoreDecodesPastCodePrefix(t *testing.T) {
	p, err := asm.Assemble(decodeTestProg, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	p.Text = append(p.Text, 0, 0)
	m := New(DefaultConfig(2))
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	cp, err := m.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	r, err := Restore(cp)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if n := len(r.Mem.Code()); n != len(p.Text)-2 {
		t.Fatalf("restored code prefix is %d words, want the %d before the trailing zeros", n, len(p.Text)-2)
	}
	checkImage(t, "after Restore", r, len(p.Text))
	for i := len(p.Text) - 2; i < len(p.Text); i++ {
		if op := r.descAt(uint32(4 * i)).Op(); op != isa.OpInvalid {
			t.Errorf("word %d past the restored prefix decodes to %v, want OpInvalid", i, op)
		}
	}
}
