package asm

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src, Options{})
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func decodeAll(p *Program) []isa.Inst {
	out := make([]isa.Inst, len(p.Text))
	for i, w := range p.Text {
		out[i] = isa.Decode(w)
	}
	return out
}

func TestBasicProgram(t *testing.T) {
	p := mustAssemble(t, `
		.text
	main:
		addi sp, sp, -8
		sw ra, 0(sp)
		li t0, -1
		lw ra, 0(sp)
		addi sp, sp, 8
		ret
	`)
	ins := decodeAll(p)
	if len(ins) != 6 {
		t.Fatalf("got %d instructions, want 6", len(ins))
	}
	if ins[0].Op != isa.OpADDI || ins[0].Rd != 2 || ins[0].Imm != -8 {
		t.Errorf("inst 0: %+v", ins[0])
	}
	if ins[1].Op != isa.OpSW || ins[1].Rs2 != 1 || ins[1].Rs1 != 2 {
		t.Errorf("inst 1: %+v", ins[1])
	}
	if ins[2].Op != isa.OpADDI || ins[2].Rd != 5 || ins[2].Imm != -1 {
		t.Errorf("li t0,-1 must be a single addi: %+v", ins[2])
	}
	if ins[5].Op != isa.OpJALR || ins[5].Rd != 0 || ins[5].Rs1 != 1 {
		t.Errorf("ret: %+v", ins[5])
	}
	if p.Entry != 0 {
		t.Errorf("entry = %#x, want 0", p.Entry)
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := mustAssemble(t, `
	main:
		li a0, 0
	loop:
		addi a0, a0, 1
		blt a0, a1, loop
		beqz a0, main
		j done
		nop
	done:
		ret
	`)
	ins := decodeAll(p)
	// blt at index 2, loop at index 1 => offset -4
	if ins[2].Op != isa.OpBLT || ins[2].Imm != -4 {
		t.Errorf("blt: %+v", ins[2])
	}
	// beqz at index 3 targets main (0) => offset -12
	if ins[3].Op != isa.OpBEQ || ins[3].Imm != -12 || ins[3].Rs2 != 0 {
		t.Errorf("beqz: %+v", ins[3])
	}
	// j at index 4 targets done (index 6) => offset +8
	if ins[4].Op != isa.OpJAL || ins[4].Rd != 0 || ins[4].Imm != 8 {
		t.Errorf("j: %+v", ins[4])
	}
}

func TestForwardLiSymbol(t *testing.T) {
	p := mustAssemble(t, `
	main:
		la a0, vec
		lw a1, 0(a0)
		ret
		.data
	vec:
		.word 1, 2, 3
	`)
	ins := decodeAll(p)
	if ins[0].Op != isa.OpLUI || ins[1].Op != isa.OpADDI {
		t.Fatalf("la must expand to lui+addi: %v %v", ins[0].Op, ins[1].Op)
	}
	addr := uint32(ins[0].Imm) + uint32(ins[1].Imm)
	if addr != DefaultDataBase {
		t.Errorf("vec address = %#x, want %#x", addr, uint32(DefaultDataBase))
	}
	if len(p.Segments) != 1 || len(p.Segments[0].Words) != 3 {
		t.Fatalf("segments: %+v", p.Segments)
	}
	if p.Segments[0].Words[2] != 3 {
		t.Errorf("data words: %v", p.Segments[0].Words)
	}
}

func TestLuiAddiCarryFixup(t *testing.T) {
	// Value whose low 12 bits are >= 0x800 needs the +0x1000 carry fix.
	p := mustAssemble(t, `
	main:
		li a0, 0x12345FFF
		ret
	`)
	ins := decodeAll(p)
	got := uint32(ins[0].Imm) + uint32(ins[1].Imm)
	if got != 0x12345FFF {
		t.Errorf("li value = %#x, want 0x12345FFF", got)
	}
}

func TestXParSyntax(t *testing.T) {
	p := mustAssemble(t, `
	main:
		p_fc t6
		p_swcv t6, ra, 0
		p_swcv t6, t0, 4
		p_swcv t6, a1, 8
		p_merge t0, t0, t6
		p_syncm
		p_jalr ra, t0, a0
		p_lwcv ra, 0
		p_lwcv t0, 4
		p_lwcv a1, 8
		p_fn t5
		p_set t0
		p_set t1, t2
		p_swre t0, a0, 1
		p_lwre a0, 1
		p_ret
		p_ret ra, t0
		p_jal ra, t6, main
	`)
	ins := decodeAll(p)
	want := []isa.Op{isa.OpPFC, isa.OpPSWCV, isa.OpPSWCV, isa.OpPSWCV,
		isa.OpPMERGE, isa.OpPSYNCM, isa.OpPJALR, isa.OpPLWCV, isa.OpPLWCV,
		isa.OpPLWCV, isa.OpPFN, isa.OpPSET, isa.OpPSET, isa.OpPSWRE,
		isa.OpPLWRE, isa.OpPJALR, isa.OpPJALR, isa.OpPJAL}
	if len(ins) != len(want) {
		t.Fatalf("got %d instructions, want %d", len(ins), len(want))
	}
	for i, w := range want {
		if ins[i].Op != w {
			t.Errorf("inst %d: op %v, want %v", i, ins[i].Op, w)
		}
	}
	if !ins[15].IsPRet() || !ins[16].IsPRet() {
		t.Error("p_ret must decode with rd == x0")
	}
	if ins[11].Rs1 != 5 { // p_set t0 => rs1 defaults to rd
		t.Errorf("p_set single operand: rs1 = %d, want 5", ins[11].Rs1)
	}
	if ins[6].Rd != 1 || ins[6].Rs1 != 5 || ins[6].Rs2 != 10 {
		t.Errorf("p_jalr operands: %+v", ins[6])
	}
}

func TestDirectives(t *testing.T) {
	p := mustAssemble(t, `
		.equ N, 16
		.equ MASK, (1<<4)-1
	main:
		li a0, N*4
		li a1, MASK
		ret
		.data
	arr:
		.space 16
	brr:
		.fill 4, 7
	crr:
		.org 0x80010000
	far:
		.word 42
	`)
	ins := decodeAll(p)
	if ins[0].Imm != 64 {
		t.Errorf("N*4 = %d", ins[0].Imm)
	}
	if ins[1].Imm != 15 {
		t.Errorf("MASK = %d", ins[1].Imm)
	}
	if p.Symbols["brr"] != DefaultDataBase+16 {
		t.Errorf("brr = %#x", p.Symbols["brr"])
	}
	if p.Symbols["far"] != 0x80010000 {
		t.Errorf("far = %#x", p.Symbols["far"])
	}
	if len(p.Segments) != 2 {
		t.Fatalf("want 2 segments, got %+v", p.Segments)
	}
	if p.Segments[1].Addr != 0x80010000 || p.Segments[1].Words[0] != 42 {
		t.Errorf("far segment: %+v", p.Segments[1])
	}
}

// errorCases are sources Assemble must refuse, with the line and a piece
// of the message. The second group used to panic, hang, take seconds
// and gigabytes, or assemble to something else than was written; they
// are FuzzAssemble's hostile seeds too.
var errorCases = []struct {
	src     string
	line    int
	wantSub string
}{
	{"main:\n\tfrobnicate a0", 2, "unknown mnemonic"},
	{"main:\n\taddi a0, a0", 2, "want 3 operands"},
	{"main:\n\tlw a0, nope", 2, "want off(reg)"},
	{"main:\n\tj nowhere", 2, "undefined symbol"},
	{"main:\nmain:\n\tret", 2, "duplicate label"},
	{"main:\n\taddi a0, q7, 1", 2, "bad register"},
	{".data\n\taddi a0, a0, 1", 2, "in .data section"},
	{"main:\n\tli a0, 1/0", 2, "division by zero"},
	{"main:\n\t.bogus 3", 2, "unknown directive"},

	// an alignment that is no power of two below 2^32 (divide by zero)
	{"main:\n\tnop\n\t.align 32", 3, ".align 32"},
	{".data\n.align 40", 2, ".align 40"},
	{".data\n.align -1", 2, ".align -1"},
	{".data\n.org 0x80000002\n.align 2", 3, "unaligned"},
	// negative counts (taken for zero), a location counter that wraps, a
	// value lui cannot hold (assembled as lui a0, 0), a register number
	// that overflows int (taken for ra)
	{".data\n.space -8", 2, "negative count"},
	{".data\n.fill -1, 0", 2, "negative count"},
	{".data\n.org 0xfffffffc\n.word 1, 2, 3", 3, "past the end of the address space"},
	{"main:\n\tlui a0, 0x100000", 2, "does not fit"},
	{"main:\n\tauipc a0, -0x80001", 2, "does not fit"},
	{"main:\n\tmv x18446744073709551617, a0", 2, "bad register"},
	// a few bytes of source sizing the output (.space 0x10000000: 7 s
	// and 256 MiB; 0xfffffffc: 4 GiB)
	{".data\n.space 0x10000000", 2, "larger than"},
	{".data\n.space 0xfffffffc", 2, "larger than"},
	{".data\n.fill 50000000, 7", 2, "larger than"},
	{"main:\n\tnop\n\t.align 31", 3, "larger than"},
	{".data\nx: .space 0x3fffffc\n.word 1, 2", 3, "larger than"},
	// operands the zero-operand forms used to ignore
	{"main:\n\tfence a0, a1", 2, "want 0 operands"},
	{"main:\n\tecall 1,2", 2, "want 0 operands"},
	{"main:\n\tret a0", 2, "want 0 operands"},
	{"main:\n\tnop x", 2, "want 0 operands"},
	{"main:\n\tp_syncm x", 2, "want 0 operands"},
	{"main:\n\tp_ret ra", 2, "want 0 or 2 operands"},
	{"main:\n\taddi a0, a0, ", 2, "operand 3 is empty"},
	// one parser recursion per '(' or unary operator
	{"main:\n\tli a0, " + strings.Repeat("(", 1<<16), 2, "nested deeper"},
	{"main:\n\tli a0, " + strings.Repeat("-~", 1<<15) + "1", 2, "nested deeper"},
}

// TestErrors: every refusal is an *Error on the faulty line, made in
// bounded time and without allocating more than the order of the source.
func TestErrors(t *testing.T) {
	for _, c := range errorCases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := Assemble(c.src, Options{})
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		src := c.src
		if len(src) > 60 {
			src = src[:60] + "..."
		}
		var ae *Error
		if !errors.As(err, &ae) || ae.Line != c.line || !strings.Contains(ae.Msg, c.wantSub) {
			t.Errorf("Assemble(%q) error = %v, want an *Error on line %d containing %q", src, err, c.line, c.wantSub)
		}
		if spent, bound := after.TotalAlloc-before.TotalAlloc, uint64(128*len(c.src)+64<<10); spent > bound || took > 50*time.Millisecond {
			t.Errorf("Assemble(%q): refused in %v with %d bytes allocated, want under 50ms and %d bytes", src, took, spent, bound)
		}
	}
}

// TestSizeBound: a program may fill the bound exactly, and alignment
// padding below it is a bounded amount of work.
func TestSizeBound(t *testing.T) {
	p := mustAssemble(t, "main:\n\tnop\n\t.align 20\n\t.data\n\t.space 0x3f00000\n")
	if len(p.Text) != 1<<18 || p.Text[1<<18-1] != 0x13 || len(p.Segments[0].Words) != MaxWords-1<<18 {
		t.Errorf("text %d words, data %d words", len(p.Text), len(p.Segments[0].Words))
	}
	p = mustAssemble(t, ".data\n.org 0xfffffff8\n.word 1, 2\nend:\n")
	if got := p.Segments[0]; got.Addr != 0xfffffff8 || len(got.Words) != 2 {
		t.Errorf("the last two words of the address space: %+v", got)
	}
}

func TestPassesAgreeOnAddresses(t *testing.T) {
	// A li with a forward data symbol must take 2 slots in both passes so
	// the label after it lands at the same place.
	p := mustAssemble(t, `
	main:
		la a0, buf
	after:
		ret
		.data
	buf:
		.word 0
	`)
	if p.Symbols["after"] != 8 {
		t.Errorf("after = %#x, want 8", p.Symbols["after"])
	}
}

func TestSwappedBranchPseudos(t *testing.T) {
	p := mustAssemble(t, `
	main:
		bgt a0, a1, main
		ble a0, a1, main
	`)
	ins := decodeAll(p)
	if ins[0].Op != isa.OpBLT || ins[0].Rs1 != 11 || ins[0].Rs2 != 10 {
		t.Errorf("bgt: %+v", ins[0])
	}
	if ins[1].Op != isa.OpBGE || ins[1].Rs1 != 11 || ins[1].Rs2 != 10 {
		t.Errorf("ble: %+v", ins[1])
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	p := mustAssemble(t, `
	# full line comment
	main: ; comment
		nop # trailing
		nop // c++ style

	`)
	if len(p.Text) != 2 {
		t.Errorf("got %d instructions, want 2", len(p.Text))
	}
	// A comment character, a comma or a colon inside a char literal is
	// the character.
	p = mustAssemble(t, "main:\n\tli a0, '#' # hash\n\tli a1, ';'\n\tli a2, ','\n\tli a3, ':'\n\tli a4, '/'// slash\n")
	for i, want := range "#;,:/" {
		if in := isa.Decode(p.Text[i]); len(p.Text) != 5 || in.Op != isa.OpADDI || in.Imm != int32(want) {
			t.Errorf("li of %q: %d words, word %d = %+v", want, len(p.Text), i, in)
		}
	}
}

func TestHiLo(t *testing.T) {
	p := mustAssemble(t, `
		.equ ADDR, 0x80001234
	main:
		lui a0, %hi(ADDR)
		addi a0, a0, %lo(ADDR)
		ret
	`)
	ins := decodeAll(p)
	got := uint32(int64(ins[0].Imm) + int64(ins[1].Imm))
	if got != 0x80001234 {
		t.Errorf("hi/lo reconstruction = %#x", got)
	}
}

func TestEntryIsMain(t *testing.T) {
	p := mustAssemble(t, `
	helper:
		ret
	main:
		ret
	`)
	if p.Entry != 4 {
		t.Errorf("entry = %d, want 4", p.Entry)
	}
}

func TestImageRoundTrip(t *testing.T) {
	p := mustAssemble(t, `
main:
	li a0, 1
	la a1, data
	ret
	.data
data:
	.word 1, 2, 3
	.org 0x80010000
far:
	.word 9
`)
	var buf strings.Builder
	if err := p.WriteImage(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadImage(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ReadImage: %v\n%s", err, buf.String())
	}
	if q.Entry != p.Entry || q.TextBase != p.TextBase {
		t.Errorf("header mismatch: %+v vs %+v", q, p)
	}
	if len(q.Text) != len(p.Text) {
		t.Fatalf("text length %d vs %d", len(q.Text), len(p.Text))
	}
	for i := range p.Text {
		if q.Text[i] != p.Text[i] {
			t.Errorf("text[%d] = %08x vs %08x", i, q.Text[i], p.Text[i])
		}
	}
	if len(q.Segments) != len(p.Segments) {
		t.Fatalf("segments %d vs %d", len(q.Segments), len(p.Segments))
	}
	for i := range p.Segments {
		if q.Segments[i].Addr != p.Segments[i].Addr ||
			len(q.Segments[i].Words) != len(p.Segments[i].Words) {
			t.Errorf("segment %d mismatch", i)
		}
	}
	for name, v := range p.Symbols {
		if q.Symbols[name] != v {
			t.Errorf("symbol %s: %x vs %x", name, q.Symbols[name], v)
		}
	}
}

func TestReadImageErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus 1\n",
		"lbpimage 2\n",
		"lbpimage 1\ntext 0 4\n00000001\n", // truncated
		"lbpimage 1\nwhat 0\n",             // unknown record
		"lbpimage 1\ntext 0 1\nzz\n",       // bad word
	}
	for _, c := range cases {
		if _, err := ReadImage(strings.NewReader(c)); err == nil {
			t.Errorf("ReadImage(%q) succeeded", c)
		}
	}
}

// Property: the disassembly of a program re-assembles to the identical
// text image (labels come back as the absolute addresses the assembler
// accepts as literals). The program is made from the instruction table:
// every Op, with each operand its shape lists set, at a few values of
// its immediate.
func TestDisassemblyReassembles(t *testing.T) {
	var text []uint32
	for op := isa.OpInvalid + 1; op < isa.NumOps; op++ {
		in := isa.Inst{Op: op}
		imms := []int32{0}
		for _, k := range op.Shape() {
			switch k {
			case 'd':
				in.Rd = 5
			case '1', 'm':
				in.Rs1 = 6
			case '2':
				in.Rs2 = 7
			case 's':
				in.Rs1 = 2
			}
			switch k {
			case 'i', 'm':
				imms = []int32{0, 5, 31, -8, 2047, -2048} // a shift takes the first three
			case 'u':
				imms = []int32{0, 0x12345 << 12, -1 << 12}
			case 't':
				imms = []int32{0, 16, -4, 2046, -2048}
			}
		}
		encoded := 0
		for _, imm := range imms {
			in.Imm = imm
			if w, err := isa.Encode(in); err == nil {
				text = append(text, w)
				encoded++
			}
		}
		if encoded == 0 || encoded < len(imms) && len(imms)-encoded != 3 {
			t.Fatalf("%v: %d of %d instances encode", op, encoded, len(imms))
		}
	}
	pret, err := isa.Encode(isa.Inst{Op: isa.OpPJALR, Rs1: 1, Rs2: 5})
	if err != nil {
		t.Fatal(err)
	}
	text = append(text, pret)

	var listing strings.Builder
	listing.WriteString("main:\n")
	for i, w := range text {
		listing.WriteString("\t" + isa.Disassemble(isa.Decode(w), uint32(4*i)) + "\n")
	}
	// p_ret disassembles with parenthesized operands; normalize
	norm := strings.ReplaceAll(listing.String(), "p_ret (ra, t0)", "p_ret ra, t0")
	q, err := Assemble(norm, Options{})
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, norm)
	}
	if len(q.Text) != len(text) {
		t.Fatalf("length %d vs %d", len(q.Text), len(text))
	}
	for i := range text {
		if q.Text[i] != text[i] {
			t.Errorf("word %d: %08x vs %08x (%s)", i, q.Text[i], text[i],
				isa.Disassemble(isa.Decode(text[i]), uint32(4*i)))
		}
	}
}

// TestFormsTable: the forms table holds every instruction of the isa
// table under its own mnemonic and shape, and the pseudo-instructions;
// 82 mnemonics in all (internal/cc's TestAsmoptRolesMatchParentLists
// walks the same 82 by name).
func TestFormsTable(t *testing.T) {
	for op := isa.OpInvalid + 1; op < isa.NumOps; op++ {
		shape := strings.ReplaceAll(op.Shape(), "s", "")
		if shape == "dm" && op == isa.OpJALR {
			shape = "dM" // the one real form a pseudo row replaces
		}
		if f := FormOf(op.String(), len(shape)); f == nil || f.Op() != op || f.Shape() != shape {
			t.Errorf("FormOf(%q, %d) = %+v; want %v, %q", op.String(), len(shape), f, op, shape)
		}
	}
	for _, p := range pseudo {
		if f := FormOf(p.mn, len(p.shape)); f == nil || f.Op() != p.fix.Op || f.Shape() != p.shape {
			t.Errorf("FormOf(%q, %d) = %+v; want %v, %q", p.mn, len(p.shape), f, p.fix.Op, p.shape)
		}
	}
	if len(forms) != 82 {
		t.Errorf("the forms table has %d mnemonics, want 82", len(forms))
	}
	if FormOf("addi", 2) != nil {
		t.Error("FormOf accepts addi with two operands")
	}
}

func TestExpressionEvaluator(t *testing.T) {
	cases := map[string]int64{
		"1+2*3":           7,
		"(1+2)*3":         9,
		"1<<4|3":          19,
		"0xFF & 0x0F":     15,
		"10 % 3":          1,
		"-4 + 2":          -2,
		"~0 & 0xF":        15,
		"'A' + 1":         66,
		"'\\n'":           10,
		"(1<<16)-1":       65535,
		"2*3+4*5":         26,
		"100/7/2":         7,
		"1 << 2 << 3":     32,
		"%lo(0x80001234)": 0x234,
		"%hi(0x80001234)": 0x80001,
		"%lo(0x80000FFF)": -1, // sign-extended low 12 bits
	}
	for expr, want := range cases {
		p := mustAssemble(t, ".equ V, "+expr+"\nmain:\n\tret\n")
		_ = p
		a := &assembler{symbols: map[string]uint32{}, equs: map[string]int64{}}
		got, err := a.eval(1, expr)
		if err != nil {
			t.Errorf("eval(%q): %v", expr, err)
			continue
		}
		if got != want {
			t.Errorf("eval(%q) = %d, want %d", expr, got, want)
		}
	}
}

func TestExpressionEvaluatorErrors(t *testing.T) {
	bad := []string{"", "1+", "(1", "1//2", "nope", "%mid(1)", "1 2"}
	a := &assembler{symbols: map[string]uint32{}, equs: map[string]int64{}}
	for _, expr := range bad {
		if _, err := a.eval(1, expr); err == nil {
			t.Errorf("eval(%q) succeeded", expr)
		}
	}
}

// TestListBuiltEqualsText: a list made with the builder renders as the
// text one would have written, and assembles to what that text
// assembles to — labels, both sections, every directive the builder
// has, integer and symbol operands, a hexadecimal upper immediate, and a
// parsed block (its comments kept) appended in the middle.
func TestListBuiltEqualsText(t *testing.T) {
	block := "# a parsed block\nhelper:\n\taddi a0, a0, 1   # trailing comment\n\tret\n"
	parsed, err := Parse(block)
	if err != nil {
		t.Fatal(err)
	}
	f := func(mn string, n int) *Form {
		if f := FormOf(mn, n); f != nil {
			return f
		}
		t.Fatalf("no form %s/%d", mn, n)
		return nil
	}
	var l List
	l.Verbatim("# built\n")
	l.Text()
	l.Label("main")
	l.Inst(f("li", 2), -1, "", 5)
	l.Inst(f("la", 2), 0, "table", 10)
	l.Inst(f("lw", 2), 8, "", 11, 10)
	l.Inst(f("sw", 2), 0, "", 11, 2)
	l.Inst(f("lui", 2), 0x80000, "", 16)
	l.Inst(f("bgt", 3), 0, "main", 11, 0)
	l.Inst(f("jal", 1), 0, "helper")
	l.Inst(f("p_ret", 0), 0, "")
	l.Append(parsed)
	l.Verbatim("\n")
	l.Data()
	l.Label("table")
	l.Word(-7)
	l.Fill(5, 3)
	l.Space(16)
	l.Org(0x80010000)
	l.Label("far")
	l.Word(1)
	want := "# built\n\t.text\nmain:\n\tli t0, -1\n\tla a0, table\n\tlw a1, 8(a0)\n\tsw a1, 0(sp)\n" +
		"\tlui a6, 0x80000\n\tbgt a1, zero, main\n\tjal helper\n\tp_ret\n" + block +
		"\n\t.data\ntable:\n\t.word -7\n\t.fill 5, 3\n\t.space 16\n\t.org 0x80010000\nfar:\n\t.word 1\n"
	if got := l.String(); got != want {
		t.Fatalf("renders as\n%s\nwant\n%s", got, want)
	}
	if parsed.String() != block {
		t.Errorf("the parsed block renders as %q", parsed.String())
	}
	fromText := mustAssemble(t, want)
	built, err := l.Assemble(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if fromText.WriteImage(&a) != nil || built.WriteImage(&b) != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("the built list assembles to\n%s\nits text to\n%s", b.String(), a.String())
	}
}

// TestListErrorLines: an error from a built list names the line the
// statement has in the list's text — also inside and after an appended
// block, whose text has lines (comments, blanks) that are no statement.
func TestListErrorLines(t *testing.T) {
	for name, c := range map[string]struct {
		block string
		after func(*List)
	}{
		"inside the block": {"# comment\n\n\tj nowhere\n", func(*List) {}},
		"after the block":  {"# comment\n\n\tnop\n", func(l *List) { l.Inst(FormOf("j", 1), 0, "nowhere") }},
		"a directive":      {"# comment\n", func(l *List) { l.Data(); l.Space(6) }},
	} {
		parsed, err := Parse(c.block)
		if err != nil {
			t.Fatal(err)
		}
		var l List
		l.Label("main")
		l.Append(parsed)
		c.after(&l)
		text := l.String()
		_, terr := Assemble(text, Options{})
		_, lerr := l.Assemble(Options{})
		if terr == nil || lerr == nil || terr.Error() != lerr.Error() {
			t.Errorf("%s: the list says %v, its text %v\n%s", name, lerr, terr, text)
		}
	}
}
