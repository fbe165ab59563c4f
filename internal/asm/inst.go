package asm

import (
	"strings"

	"repro/internal/isa"
)

// doInst assembles one instruction or pseudo-instruction statement.
func (a *assembler) doInst(l line, text string) error {
	mn, rest, _ := strings.Cut(text, " ")
	mn = strings.ToLower(strings.TrimSpace(mn))
	ops := splitOperands(strings.TrimSpace(rest))

	emit := func(in isa.Inst) error {
		word, err := isa.Encode(in)
		if err != nil {
			return a.errf(l, "%v", err)
		}
		a.emitText(word)
		return nil
	}
	reg := func(i int) (uint8, error) {
		if i >= len(ops) {
			return 0, a.errf(l, "%s: missing operand %d", mn, i+1)
		}
		r, ok := isa.RegByName(ops[i])
		if !ok {
			return 0, a.errf(l, "%s: bad register %q", mn, ops[i])
		}
		return r, nil
	}
	imm := func(i int) (int64, error) {
		if i >= len(ops) {
			return 0, a.errf(l, "%s: missing operand %d", mn, i+1)
		}
		return a.evalInst(l, ops[i])
	}
	// off(rs1) addressing
	memOperand := func(i int) (int64, uint8, error) {
		if i >= len(ops) {
			return 0, 0, a.errf(l, "%s: missing operand %d", mn, i+1)
		}
		s := ops[i]
		open := strings.LastIndex(s, "(")
		if open < 0 || !strings.HasSuffix(s, ")") {
			return 0, 0, a.errf(l, "%s: want off(reg), got %q", mn, s)
		}
		base, ok := isa.RegByName(strings.TrimSpace(s[open+1 : len(s)-1]))
		if !ok {
			return 0, 0, a.errf(l, "%s: bad base register in %q", mn, s)
		}
		offStr := strings.TrimSpace(s[:open])
		var off int64
		if offStr != "" {
			var err error
			off, err = a.evalInst(l, offStr)
			if err != nil {
				return 0, 0, err
			}
		}
		return off, base, nil
	}
	branchTarget := func(i int) (int32, error) {
		v, err := imm(i)
		if err != nil {
			return 0, err
		}
		if !a.pass2 {
			return 0, nil // offset computed properly only in pass 2
		}
		return int32(uint32(v) - a.pc), nil
	}
	nargs := func(n int) error {
		if len(ops) != n {
			return a.errf(l, "%s: want %d operands, got %d", mn, n, len(ops))
		}
		return nil
	}

	switch mn {
	// ---- U-type
	case "lui", "auipc":
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		v, err := imm(1)
		if err != nil {
			return err
		}
		op := isa.OpLUI
		if mn == "auipc" {
			op = isa.OpAUIPC
		}
		return emit(isa.Inst{Op: op, Rd: rd, Imm: int32(v << 12)})

	// ---- jumps
	case "jal":
		var rd uint8 = 1
		ti := 0
		if len(ops) == 2 {
			r, err := reg(0)
			if err != nil {
				return err
			}
			rd, ti = r, 1
		} else if err := nargs(1); err != nil {
			return err
		}
		off, err := branchTarget(ti)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: isa.OpJAL, Rd: rd, Imm: off})
	case "j":
		if err := nargs(1); err != nil {
			return err
		}
		off, err := branchTarget(0)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: off})
	case "call":
		if err := nargs(1); err != nil {
			return err
		}
		off, err := branchTarget(0)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: isa.OpJAL, Rd: 1, Imm: off})
	case "jalr":
		switch len(ops) {
		case 1: // jalr rs1
			rs1, err := reg(0)
			if err != nil {
				return err
			}
			return emit(isa.Inst{Op: isa.OpJALR, Rd: 1, Rs1: rs1})
		case 2: // jalr rd, off(rs1)  or  jalr rd, rs1
			rd, err := reg(0)
			if err != nil {
				return err
			}
			if strings.Contains(ops[1], "(") {
				off, rs1, err := memOperand(1)
				if err != nil {
					return err
				}
				return emit(isa.Inst{Op: isa.OpJALR, Rd: rd, Rs1: rs1, Imm: int32(off)})
			}
			rs1, err := reg(1)
			if err != nil {
				return err
			}
			return emit(isa.Inst{Op: isa.OpJALR, Rd: rd, Rs1: rs1})
		case 3: // jalr rd, rs1, imm
			rd, err := reg(0)
			if err != nil {
				return err
			}
			rs1, err := reg(1)
			if err != nil {
				return err
			}
			v, err := imm(2)
			if err != nil {
				return err
			}
			return emit(isa.Inst{Op: isa.OpJALR, Rd: rd, Rs1: rs1, Imm: int32(v)})
		}
		return a.errf(l, "jalr: bad operands")
	case "jr":
		if err := nargs(1); err != nil {
			return err
		}
		rs1, err := reg(0)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: isa.OpJALR, Rd: 0, Rs1: rs1})
	case "ret":
		return emit(isa.Inst{Op: isa.OpJALR, Rd: 0, Rs1: 1})

	// ---- branches
	case "beq", "bne", "blt", "bge", "bltu", "bgeu":
		if err := nargs(3); err != nil {
			return err
		}
		rs1, err := reg(0)
		if err != nil {
			return err
		}
		rs2, err := reg(1)
		if err != nil {
			return err
		}
		off, err := branchTarget(2)
		if err != nil {
			return err
		}
		op := map[string]isa.Op{"beq": isa.OpBEQ, "bne": isa.OpBNE, "blt": isa.OpBLT,
			"bge": isa.OpBGE, "bltu": isa.OpBLTU, "bgeu": isa.OpBGEU}[mn]
		return emit(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: off})
	case "bgt", "ble", "bgtu", "bleu": // swapped-operand pseudos
		if err := nargs(3); err != nil {
			return err
		}
		rs1, err := reg(0)
		if err != nil {
			return err
		}
		rs2, err := reg(1)
		if err != nil {
			return err
		}
		off, err := branchTarget(2)
		if err != nil {
			return err
		}
		op := map[string]isa.Op{"bgt": isa.OpBLT, "ble": isa.OpBGE,
			"bgtu": isa.OpBLTU, "bleu": isa.OpBGEU}[mn]
		return emit(isa.Inst{Op: op, Rs1: rs2, Rs2: rs1, Imm: off})
	case "beqz", "bnez", "bltz", "bgez":
		if err := nargs(2); err != nil {
			return err
		}
		rs1, err := reg(0)
		if err != nil {
			return err
		}
		off, err := branchTarget(1)
		if err != nil {
			return err
		}
		op := map[string]isa.Op{"beqz": isa.OpBEQ, "bnez": isa.OpBNE,
			"bltz": isa.OpBLT, "bgez": isa.OpBGE}[mn]
		return emit(isa.Inst{Op: op, Rs1: rs1, Rs2: 0, Imm: off})
	case "blez", "bgtz":
		if err := nargs(2); err != nil {
			return err
		}
		rs1, err := reg(0)
		if err != nil {
			return err
		}
		off, err := branchTarget(1)
		if err != nil {
			return err
		}
		// blez rs: bge x0, rs  ; bgtz rs: blt x0, rs
		op := isa.OpBGE
		if mn == "bgtz" {
			op = isa.OpBLT
		}
		return emit(isa.Inst{Op: op, Rs1: 0, Rs2: rs1, Imm: off})

	// ---- loads/stores
	case "lb", "lh", "lw", "lbu", "lhu":
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		off, rs1, err := memOperand(1)
		if err != nil {
			return err
		}
		op := map[string]isa.Op{"lb": isa.OpLB, "lh": isa.OpLH, "lw": isa.OpLW,
			"lbu": isa.OpLBU, "lhu": isa.OpLHU}[mn]
		return emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int32(off)})
	case "sb", "sh", "sw":
		if err := nargs(2); err != nil {
			return err
		}
		rs2, err := reg(0)
		if err != nil {
			return err
		}
		off, rs1, err := memOperand(1)
		if err != nil {
			return err
		}
		op := map[string]isa.Op{"sb": isa.OpSB, "sh": isa.OpSH, "sw": isa.OpSW}[mn]
		return emit(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: int32(off)})

	// ---- op-imm
	case "addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai":
		if err := nargs(3); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs1, err := reg(1)
		if err != nil {
			return err
		}
		v, err := imm(2)
		if err != nil {
			return err
		}
		op := map[string]isa.Op{"addi": isa.OpADDI, "slti": isa.OpSLTI,
			"sltiu": isa.OpSLTIU, "xori": isa.OpXORI, "ori": isa.OpORI,
			"andi": isa.OpANDI, "slli": isa.OpSLLI, "srli": isa.OpSRLI,
			"srai": isa.OpSRAI}[mn]
		return emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int32(v)})

	// ---- op
	case "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
		"mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu":
		if err := nargs(3); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs1, err := reg(1)
		if err != nil {
			return err
		}
		rs2, err := reg(2)
		if err != nil {
			return err
		}
		op := map[string]isa.Op{"add": isa.OpADD, "sub": isa.OpSUB,
			"sll": isa.OpSLL, "slt": isa.OpSLT, "sltu": isa.OpSLTU,
			"xor": isa.OpXOR, "srl": isa.OpSRL, "sra": isa.OpSRA,
			"or": isa.OpOR, "and": isa.OpAND, "mul": isa.OpMUL,
			"mulh": isa.OpMULH, "mulhsu": isa.OpMULHSU, "mulhu": isa.OpMULHU,
			"div": isa.OpDIV, "divu": isa.OpDIVU, "rem": isa.OpREM,
			"remu": isa.OpREMU}[mn]
		return emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})

	// ---- simple pseudos
	case "nop":
		return emit(isa.Inst{Op: isa.OpADDI})
	case "mv":
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs1, err := reg(1)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: isa.OpADDI, Rd: rd, Rs1: rs1})
	case "not":
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs1, err := reg(1)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: isa.OpXORI, Rd: rd, Rs1: rs1, Imm: -1})
	case "neg":
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs2, err := reg(1)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: isa.OpSUB, Rd: rd, Rs2: rs2})
	case "seqz":
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs1, err := reg(1)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: isa.OpSLTIU, Rd: rd, Rs1: rs1, Imm: 1})
	case "snez":
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs2, err := reg(1)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: isa.OpSLTU, Rd: rd, Rs1: 0, Rs2: rs2})

	// ---- li / la
	case "li", "la":
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		return a.expandLoadImm(l, mn, rd, ops[1])

	// ---- system
	case "fence":
		return emit(isa.Inst{Op: isa.OpFENCE})
	case "ecall":
		return emit(isa.Inst{Op: isa.OpECALL})
	case "ebreak":
		return emit(isa.Inst{Op: isa.OpEBREAK})

	// ---- X_PAR
	case "p_fc", "p_fn":
		if err := nargs(1); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		op := isa.OpPFC
		if mn == "p_fn" {
			op = isa.OpPFN
		}
		return emit(isa.Inst{Op: op, Rd: rd})
	case "p_set":
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs1 := rd
		if len(ops) == 2 {
			if rs1, err = reg(1); err != nil {
				return err
			}
		} else if len(ops) != 1 {
			return a.errf(l, "p_set: want 1 or 2 operands")
		}
		return emit(isa.Inst{Op: isa.OpPSET, Rd: rd, Rs1: rs1})
	case "p_merge":
		if err := nargs(3); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs1, err := reg(1)
		if err != nil {
			return err
		}
		rs2, err := reg(2)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: isa.OpPMERGE, Rd: rd, Rs1: rs1, Rs2: rs2})
	case "p_syncm":
		return emit(isa.Inst{Op: isa.OpPSYNCM})
	case "p_jalr":
		if err := nargs(3); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs1, err := reg(1)
		if err != nil {
			return err
		}
		rs2, err := reg(2)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: isa.OpPJALR, Rd: rd, Rs1: rs1, Rs2: rs2})
	case "p_ret":
		rs1, rs2 := uint8(1), uint8(5) // ra, t0
		if len(ops) == 2 {
			var err error
			if rs1, err = reg(0); err != nil {
				return err
			}
			if rs2, err = reg(1); err != nil {
				return err
			}
		} else if len(ops) != 0 {
			return a.errf(l, "p_ret: want 0 or 2 operands")
		}
		return emit(isa.Inst{Op: isa.OpPJALR, Rd: 0, Rs1: rs1, Rs2: rs2})
	case "p_jal":
		if err := nargs(3); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs1, err := reg(1)
		if err != nil {
			return err
		}
		off, err := branchTarget(2)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: isa.OpPJAL, Rd: rd, Rs1: rs1, Imm: off})
	case "p_swcv", "p_swre":
		if err := nargs(3); err != nil {
			return err
		}
		rs1, err := reg(0)
		if err != nil {
			return err
		}
		rs2, err := reg(1)
		if err != nil {
			return err
		}
		v, err := imm(2)
		if err != nil {
			return err
		}
		op := isa.OpPSWCV
		if mn == "p_swre" {
			op = isa.OpPSWRE
		}
		return emit(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: int32(v)})
	case "p_lwcv", "p_lwre":
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		v, err := imm(1)
		if err != nil {
			return err
		}
		op := isa.OpPLWCV
		rs1 := uint8(2)
		if mn == "p_lwre" {
			op, rs1 = isa.OpPLWRE, 0
		}
		return emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int32(v)})
	}
	return a.errf(l, "unknown mnemonic %q", mn)
}

// expandLoadImm emits li/la as one instruction when the value fits a
// signed 12-bit immediate and is fully resolvable in pass 1, and as a
// lui+addi pair otherwise. The decision is recorded in pass 1 so both
// passes agree on instruction addresses.
func (a *assembler) expandLoadImm(l line, mn string, rd uint8, expr string) error {
	emit := func(in isa.Inst) error {
		word, err := isa.Encode(in)
		if err != nil {
			return a.errf(l, "%v", err)
		}
		a.emitText(word)
		return nil
	}
	if !a.pass2 {
		size := 2
		if v, err := a.eval(l, expr); err == nil && v >= -2048 && v <= 2047 && mn == "li" {
			size = 1
		}
		a.liSize[l.num] = size
		a.pc += uint32(4 * size)
		return nil
	}
	v, err := a.eval(l, expr)
	if err != nil {
		return err
	}
	if a.liSize[l.num] == 1 {
		return emit(isa.Inst{Op: isa.OpADDI, Rd: rd, Imm: int32(v)})
	}
	u := uint32(v)
	hi := u & 0xFFFFF000
	lo := int32(u & 0xFFF)
	if lo >= 2048 {
		lo -= 4096
		hi += 0x1000
	}
	if err := emit(isa.Inst{Op: isa.OpLUI, Rd: rd, Imm: int32(hi)}); err != nil {
		return err
	}
	return emit(isa.Inst{Op: isa.OpADDI, Rd: rd, Rs1: rd, Imm: lo})
}
