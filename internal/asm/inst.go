package asm

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/isa"
)

// A Form is one spelling of a mnemonic: the operands it takes, in
// source order, and the instruction they fill in. A real instruction's
// form is its row of internal/isa's table; a pseudo-instruction is a row
// of pseudo below.
type Form struct {
	mn string
	// shape has one isa.Shape letter per operand, plus four only the
	// assembler knows:
	//
	//	b  a register that is both rd and rs1
	//	M  off(rs1), or a bare rs1
	//	l  a 32-bit value loaded by addi, or by lui+addi when it needs it
	//	a  an address: always lui+addi
	shape isa.Shape
	fix   isa.Inst // the Op, and the fields the spelling fixes

	// Worked out by init, which also turns the implied sp (isa.Shape's
	// letter s) into a fixed field.
	n   int  // operands
	imm byte // shape letter of the expression operand, 0 if none
}

// pseudo lists the pseudo-instructions and the short spellings of real
// ones. A row with a real instruction's mnemonic and operand count
// replaces that instruction's own form (jalr's second operand may be a
// bare register).
var pseudo = []Form{
	{mn: "nop", fix: isa.Inst{Op: isa.OpADDI}},
	{mn: "mv", shape: "d1", fix: isa.Inst{Op: isa.OpADDI}},
	{mn: "not", shape: "d1", fix: isa.Inst{Op: isa.OpXORI, Imm: -1}},
	{mn: "neg", shape: "d2", fix: isa.Inst{Op: isa.OpSUB}},
	{mn: "seqz", shape: "d1", fix: isa.Inst{Op: isa.OpSLTIU, Imm: 1}},
	{mn: "snez", shape: "d2", fix: isa.Inst{Op: isa.OpSLTU}},
	{mn: "li", shape: "dl", fix: isa.Inst{Op: isa.OpADDI}},
	{mn: "la", shape: "da", fix: isa.Inst{Op: isa.OpADDI}},

	{mn: "j", shape: "t", fix: isa.Inst{Op: isa.OpJAL}},
	{mn: "jal", shape: "t", fix: isa.Inst{Op: isa.OpJAL, Rd: 1}},
	{mn: "call", shape: "t", fix: isa.Inst{Op: isa.OpJAL, Rd: 1}},
	{mn: "jr", shape: "1", fix: isa.Inst{Op: isa.OpJALR}},
	{mn: "jalr", shape: "1", fix: isa.Inst{Op: isa.OpJALR, Rd: 1}},
	{mn: "jalr", shape: "dM", fix: isa.Inst{Op: isa.OpJALR}},
	{mn: "jalr", shape: "d1i", fix: isa.Inst{Op: isa.OpJALR}},
	{mn: "ret", fix: isa.Inst{Op: isa.OpJALR, Rs1: 1}},

	{mn: "bgt", shape: "21t", fix: isa.Inst{Op: isa.OpBLT}},
	{mn: "ble", shape: "21t", fix: isa.Inst{Op: isa.OpBGE}},
	{mn: "bgtu", shape: "21t", fix: isa.Inst{Op: isa.OpBLTU}},
	{mn: "bleu", shape: "21t", fix: isa.Inst{Op: isa.OpBGEU}},
	{mn: "beqz", shape: "1t", fix: isa.Inst{Op: isa.OpBEQ}},
	{mn: "bnez", shape: "1t", fix: isa.Inst{Op: isa.OpBNE}},
	{mn: "bltz", shape: "1t", fix: isa.Inst{Op: isa.OpBLT}},
	{mn: "bgez", shape: "1t", fix: isa.Inst{Op: isa.OpBGE}},
	{mn: "blez", shape: "2t", fix: isa.Inst{Op: isa.OpBGE}},
	{mn: "bgtz", shape: "2t", fix: isa.Inst{Op: isa.OpBLT}},

	{mn: "p_set", shape: "b", fix: isa.Inst{Op: isa.OpPSET}},
	{mn: "p_ret", fix: isa.Inst{Op: isa.OpPJALR, Rs1: 1, Rs2: 5}}, // ra, t0
	{mn: "p_ret", shape: "12", fix: isa.Inst{Op: isa.OpPJALR}},
}

// forms is the one table of what the assembler accepts: every spelling
// of every mnemonic, by mnemonic.
var forms = map[string][]Form{}

func init() {
	add := func(f Form) {
		if strings.Contains(f.shape, "s") { // the implied sp is one more fixed field
			f.shape, f.fix.Rs1 = strings.ReplaceAll(f.shape, "s", ""), 2
		}
		f.n = len(f.shape)
		if i := strings.IndexAny(f.shape, "iutmMla"); i >= 0 {
			f.imm = f.shape[i]
		}
		fs, i := forms[f.mn], 0
		for i < len(fs) && fs[i].n < f.n {
			i++
		}
		if i < len(fs) && fs[i].n == f.n {
			fs[i] = f
			return
		}
		forms[f.mn] = slices.Insert(fs, i, f)
	}
	for op := isa.OpInvalid + 1; op < isa.NumOps; op++ {
		add(Form{mn: op.String(), shape: op.Shape(), fix: isa.Inst{Op: op}})
	}
	for _, f := range pseudo {
		add(f)
	}
}

// FormOf finds the spelling of mn that takes n operands, nil if the
// assembler would refuse the mnemonic or the operand count.
func FormOf(mn string, n int) *Form {
	fs := forms[mn]
	for i := range fs {
		if fs[i].n == n {
			return &fs[i]
		}
	}
	return nil
}

// Op is the instruction the form assembles to.
func (f *Form) Op() isa.Op { return f.fix.Op }

// Shape has one letter per operand, as listed at the shape field.
func (f *Form) Shape() isa.Shape { return f.shape }

// setReg puts register r where operand letter k of a shape says.
func setReg(in *isa.Inst, k byte, r uint8) {
	switch k {
	case 'd':
		in.Rd = r
	case '1', 'm', 'M':
		in.Rs1 = r
	case '2':
		in.Rs2 = r
	case 'b':
		in.Rd, in.Rs1 = r, r
	}
}

// parseInst parses one instruction statement: it finds the form and
// walks its shape over the operands, the only operand loop there is.
// Registers are resolved here; the expression operand, if the form has
// one, is kept for encode.
func parseInst(st *Stmt, mn, operands string) error {
	mn = strings.ToLower(mn)
	n := countOperands(operands)
	f := FormOf(mn, n)
	if f == nil {
		fs := forms[mn]
		if fs == nil {
			return errf(st.line, "unknown mnemonic %q", mn)
		}
		want := fmt.Sprint(fs[0].n)
		for _, g := range fs[1:] {
			want += fmt.Sprintf(" or %d", g.n)
		}
		return errf(st.line, "%s: want %s operands, got %d", mn, want, n)
	}
	st.kind, st.form, st.In = stInst, f, f.fix
	for i := 0; i < len(f.shape); i++ {
		k := f.shape[i]
		var opnd string
		opnd, operands, _ = cutOperand(operands)
		regName := opnd
		switch {
		case k == 'm' || k == 'M' && strings.Contains(opnd, "("):
			open := strings.LastIndexByte(opnd, '(')
			if open < 0 || !strings.HasSuffix(opnd, ")") {
				return errf(st.line, "%s: want off(reg), got %q", mn, opnd)
			}
			regName = strings.TrimSpace(opnd[open+1 : len(opnd)-1])
			if st.arg = strings.TrimSpace(opnd[:open]); st.arg == "" {
				st.arg = "0"
			}
		case strings.IndexByte("iutla", k) >= 0: // the expression operand
			if opnd == "" {
				return errf(st.line, "%s: operand %d is empty", mn, i+1)
			}
			st.arg = opnd
			continue
		}
		r, ok := isa.RegByName(regName)
		if !ok {
			return errf(st.line, "%s: bad register %q", mn, regName)
		}
		setReg(&st.In, k, r)
	}
	return nil
}

// encodeInst evaluates the statement's expression operand, now that
// every symbol has its address, and emits the instruction.
func (a *assembler) encodeInst(st *Stmt) error {
	in, v := st.In, st.val
	if st.arg != "" {
		var err error
		if v, err = a.evalNow(st.line, st.arg); err != nil {
			return err
		}
	}
	switch st.form.imm {
	case 'i', 'm', 'M':
		in.Imm = int32(v)
	case 'u':
		if v < -1<<19 || v >= 1<<20 {
			return errf(st.line, "%s: value %d does not fit the upper 20 bits", st.form.mn, v)
		}
		in.Imm = int32(v << 12)
	case 't':
		in.Imm = int32(uint32(v) - (a.opt.TextBase + uint32(4*len(a.text))))
	case 'l', 'a':
		if st.n == 1 {
			in.Imm = int32(v)
			break
		}
		hi, lo := uint32(v)&0xFFFFF000, int32(v&0xFFF)
		if lo >= 2048 { // addi sign-extends: borrow from the upper part
			lo -= 4096
			hi += 0x1000
		}
		if err := a.emit(st.line, isa.Inst{Op: isa.OpLUI, Rd: in.Rd, Imm: int32(hi)}); err != nil {
			return err
		}
		in.Rs1, in.Imm = in.Rd, lo
	}
	return a.emit(st.line, in)
}

func (a *assembler) emit(line int, in isa.Inst) error {
	word, err := isa.Encode(in)
	if err != nil {
		return errf(line, "%v", err)
	}
	a.text = append(a.text, word)
	return nil
}
