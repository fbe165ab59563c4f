package isa

import "fmt"

// The switch-based instruction set as the commit before the one-table
// rewrite stated it — refEncTable, Encode, the six decode arrays and
// Decode's switch, Disassemble, ClassOf and the three operand
// predicates, verbatim under a ref prefix. They are the reference the
// table-driven versions are walked against (TestTableMatchesReference);
// nothing outside this file's tests may call them.

// X_PAR funct3 assignments inside custom-0.
const (
	xf3Fork  = 0 // p_fc (funct7=0), p_fn (funct7=1)
	xf3Set   = 1
	xf3Merge = 2
	xf3Syncm = 3
	xf3Jalr  = 4
	xf3Lwre  = 5
	xf3Jal   = 6 // I-type: rd, rs1, imm12 (pc-relative)
)

// X_PAR funct3 assignments inside custom-1.
const (
	xf3Swcv = 0 // S-type
	xf3Lwcv = 1 // I-type
	xf3Swre = 2 // S-type
)

// iType describes how each opcode is encoded.
type refEncSpec struct {
	opc uint32
	f3  uint32
	f7  uint32
	fmt byte // 'R','I','S','B','U','J','N' (none), special letters for shifts
}

var refEncTable = map[Op]refEncSpec{
	OpLUI:    {opcLUI, 0, 0, 'U'},
	OpAUIPC:  {opcAUIPC, 0, 0, 'U'},
	OpJAL:    {opcJAL, 0, 0, 'J'},
	OpJALR:   {opcJALR, 0, 0, 'I'},
	OpBEQ:    {opcBranch, 0, 0, 'B'},
	OpBNE:    {opcBranch, 1, 0, 'B'},
	OpBLT:    {opcBranch, 4, 0, 'B'},
	OpBGE:    {opcBranch, 5, 0, 'B'},
	OpBLTU:   {opcBranch, 6, 0, 'B'},
	OpBGEU:   {opcBranch, 7, 0, 'B'},
	OpLB:     {opcLoad, 0, 0, 'I'},
	OpLH:     {opcLoad, 1, 0, 'I'},
	OpLW:     {opcLoad, 2, 0, 'I'},
	OpLBU:    {opcLoad, 4, 0, 'I'},
	OpLHU:    {opcLoad, 5, 0, 'I'},
	OpSB:     {opcStore, 0, 0, 'S'},
	OpSH:     {opcStore, 1, 0, 'S'},
	OpSW:     {opcStore, 2, 0, 'S'},
	OpADDI:   {opcOpImm, 0, 0, 'I'},
	OpSLTI:   {opcOpImm, 2, 0, 'I'},
	OpSLTIU:  {opcOpImm, 3, 0, 'I'},
	OpXORI:   {opcOpImm, 4, 0, 'I'},
	OpORI:    {opcOpImm, 6, 0, 'I'},
	OpANDI:   {opcOpImm, 7, 0, 'I'},
	OpSLLI:   {opcOpImm, 1, 0x00, 'H'},
	OpSRLI:   {opcOpImm, 5, 0x00, 'H'},
	OpSRAI:   {opcOpImm, 5, 0x20, 'H'},
	OpADD:    {opcOp, 0, 0x00, 'R'},
	OpSUB:    {opcOp, 0, 0x20, 'R'},
	OpSLL:    {opcOp, 1, 0x00, 'R'},
	OpSLT:    {opcOp, 2, 0x00, 'R'},
	OpSLTU:   {opcOp, 3, 0x00, 'R'},
	OpXOR:    {opcOp, 4, 0x00, 'R'},
	OpSRL:    {opcOp, 5, 0x00, 'R'},
	OpSRA:    {opcOp, 5, 0x20, 'R'},
	OpOR:     {opcOp, 6, 0x00, 'R'},
	OpAND:    {opcOp, 7, 0x00, 'R'},
	OpFENCE:  {opcMiscMem, 0, 0, 'I'},
	OpECALL:  {opcSystem, 0, 0, 'I'},
	OpEBREAK: {opcSystem, 0, 0, 'E'},

	OpMUL:    {opcOp, 0, funct7MulDiv, 'R'},
	OpMULH:   {opcOp, 1, funct7MulDiv, 'R'},
	OpMULHSU: {opcOp, 2, funct7MulDiv, 'R'},
	OpMULHU:  {opcOp, 3, funct7MulDiv, 'R'},
	OpDIV:    {opcOp, 4, funct7MulDiv, 'R'},
	OpDIVU:   {opcOp, 5, funct7MulDiv, 'R'},
	OpREM:    {opcOp, 6, funct7MulDiv, 'R'},
	OpREMU:   {opcOp, 7, funct7MulDiv, 'R'},

	OpPFC:    {opcXParCtl, xf3Fork, 0x00, 'R'},
	OpPFN:    {opcXParCtl, xf3Fork, 0x01, 'R'},
	OpPSET:   {opcXParCtl, xf3Set, 0, 'R'},
	OpPMERGE: {opcXParCtl, xf3Merge, 0, 'R'},
	OpPSYNCM: {opcXParCtl, xf3Syncm, 0, 'R'},
	OpPJALR:  {opcXParCtl, xf3Jalr, 0, 'R'},
	OpPLWRE:  {opcXParCtl, xf3Lwre, 0, 'I'},
	OpPJAL:   {opcXParCtl, xf3Jal, 0, 'I'},
	OpPSWCV:  {opcXParMem, xf3Swcv, 0, 'S'},
	OpPLWCV:  {opcXParMem, xf3Lwcv, 0, 'I'},
	OpPSWRE:  {opcXParMem, xf3Swre, 0, 'S'},
}

// refEncode produces the 32-bit binary encoding of a decoded instruction.
func refEncode(in Inst) (uint32, error) {
	spec, ok := refEncTable[in.Op]
	if !ok {
		return 0, fmt.Errorf("isa: cannot encode op %v", in.Op)
	}
	switch spec.fmt {
	case 'R':
		return encR(spec.opc, spec.f3, spec.f7, in.Rd, in.Rs1, in.Rs2), nil
	case 'I':
		if in.Imm < -2048 || in.Imm > 2047 {
			return 0, fmt.Errorf("isa: %v immediate %d out of 12-bit range", in.Op, in.Imm)
		}
		return encI(spec.opc, spec.f3, in.Rd, in.Rs1, in.Imm), nil
	case 'H': // shift-immediate
		if in.Imm < 0 || in.Imm > 31 {
			return 0, fmt.Errorf("isa: %v shift amount %d out of range", in.Op, in.Imm)
		}
		return encI(spec.opc, spec.f3, in.Rd, in.Rs1, in.Imm|int32(spec.f7)<<5), nil
	case 'S':
		if in.Imm < -2048 || in.Imm > 2047 {
			return 0, fmt.Errorf("isa: %v immediate %d out of 12-bit range", in.Op, in.Imm)
		}
		return encS(spec.opc, spec.f3, in.Rs1, in.Rs2, in.Imm), nil
	case 'B':
		if in.Imm < -4096 || in.Imm > 4095 || in.Imm&1 != 0 {
			return 0, fmt.Errorf("isa: %v branch offset %d invalid", in.Op, in.Imm)
		}
		return encB(spec.opc, spec.f3, in.Rs1, in.Rs2, in.Imm), nil
	case 'U':
		return encU(spec.opc, in.Rd, in.Imm), nil
	case 'J':
		if in.Imm < -(1<<20) || in.Imm >= 1<<20 || in.Imm&1 != 0 {
			return 0, fmt.Errorf("isa: %v jump offset %d invalid", in.Op, in.Imm)
		}
		return encJ(spec.opc, in.Rd, in.Imm), nil
	case 'E': // ebreak
		return encI(spec.opc, spec.f3, 0, 0, 1), nil
	}
	return 0, fmt.Errorf("isa: unknown format for %v", in.Op)
}

// Decode tables: the opcode each funct3 selects under one major opcode
// (and, for R-type, one funct7); OpInvalid marks an unassigned encoding.
var (
	refBranchOps = [8]Op{0: OpBEQ, 1: OpBNE, 4: OpBLT, 5: OpBGE, 6: OpBLTU, 7: OpBGEU}
	refLoadOps   = [8]Op{0: OpLB, 1: OpLH, 2: OpLW, 4: OpLBU, 5: OpLHU}
	refStoreOps  = [8]Op{0: OpSB, 1: OpSH, 2: OpSW}
	refOpOps     = [8]Op{OpADD, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpOR, OpAND} // funct7 0x00
	refOpAltOps  = [8]Op{0: OpSUB, 5: OpSRA}                                     // funct7 0x20
	refMulDivOps = [8]Op{OpMUL, OpMULH, OpMULHSU, OpMULHU, OpDIV, OpDIVU, OpREM, OpREMU}
)

// refDecode interprets a 32-bit word as an instruction. Unknown words decode
// to an Inst with Op == OpInvalid; no error is returned so that the
// pipeline can raise a deterministic machine fault instead.
func refDecode(raw uint32) Inst {
	in := Inst{Raw: raw}
	opc := raw & 0x7F
	rd := uint8(raw >> 7 & 0x1F)
	f3 := raw >> 12 & 0x7
	rs1 := uint8(raw >> 15 & 0x1F)
	rs2 := uint8(raw >> 20 & 0x1F)
	f7 := raw >> 25 & 0x7F
	immI := signExtend(raw>>20, 12)
	immS := signExtend(raw>>25<<5|raw>>7&0x1F, 12)
	immB := signExtend((raw>>31&1)<<12|(raw>>7&1)<<11|(raw>>25&0x3F)<<5|(raw>>8&0xF)<<1, 13)
	immU := int32(raw & 0xFFFFF000)
	immJ := signExtend((raw>>31&1)<<20|(raw>>12&0xFF)<<12|(raw>>20&1)<<11|(raw>>21&0x3FF)<<1, 21)

	switch opc {
	case opcLUI:
		in.Op, in.Rd, in.Imm = OpLUI, rd, immU
	case opcAUIPC:
		in.Op, in.Rd, in.Imm = OpAUIPC, rd, immU
	case opcJAL:
		in.Op, in.Rd, in.Imm = OpJAL, rd, immJ
	case opcJALR:
		if f3 == 0 {
			in.Op, in.Rd, in.Rs1, in.Imm = OpJALR, rd, rs1, immI
		}
	case opcBranch:
		if op := refBranchOps[f3]; op != OpInvalid {
			in.Op, in.Rs1, in.Rs2, in.Imm = op, rs1, rs2, immB
		}
	case opcLoad:
		if op := refLoadOps[f3]; op != OpInvalid {
			in.Op, in.Rd, in.Rs1, in.Imm = op, rd, rs1, immI
		}
	case opcStore:
		if op := refStoreOps[f3]; op != OpInvalid {
			in.Op, in.Rs1, in.Rs2, in.Imm = op, rs1, rs2, immS
		}
	case opcOpImm:
		switch f3 {
		case 0:
			in.Op = OpADDI
		case 2:
			in.Op = OpSLTI
		case 3:
			in.Op = OpSLTIU
		case 4:
			in.Op = OpXORI
		case 6:
			in.Op = OpORI
		case 7:
			in.Op = OpANDI
		case 1:
			in.Op = OpSLLI
		case 5:
			if f7 == 0x20 {
				in.Op = OpSRAI
			} else {
				in.Op = OpSRLI
			}
		}
		in.Rd, in.Rs1, in.Imm = rd, rs1, immI
		if in.Op == OpSLLI || in.Op == OpSRLI || in.Op == OpSRAI {
			in.Imm = int32(rs2) // shamt
		}
	case opcOp:
		var op Op
		switch f7 {
		case 0x00:
			op = refOpOps[f3]
		case 0x20:
			op = refOpAltOps[f3]
		case funct7MulDiv:
			op = refMulDivOps[f3]
		}
		if op != OpInvalid {
			in.Op, in.Rd, in.Rs1, in.Rs2 = op, rd, rs1, rs2
		}
	case opcMiscMem:
		in.Op = OpFENCE
	case opcSystem:
		if raw>>20&0xFFF == 1 {
			in.Op = OpEBREAK
		} else {
			in.Op = OpECALL
		}
	case opcXParCtl:
		switch f3 {
		case xf3Fork:
			if f7 == 0 {
				in.Op, in.Rd = OpPFC, rd
			} else if f7 == 1 {
				in.Op, in.Rd = OpPFN, rd
			}
		case xf3Set:
			in.Op, in.Rd, in.Rs1 = OpPSET, rd, rs1
		case xf3Merge:
			in.Op, in.Rd, in.Rs1, in.Rs2 = OpPMERGE, rd, rs1, rs2
		case xf3Syncm:
			in.Op = OpPSYNCM
		case xf3Jalr:
			in.Op, in.Rd, in.Rs1, in.Rs2 = OpPJALR, rd, rs1, rs2
		case xf3Lwre:
			in.Op, in.Rd, in.Imm = OpPLWRE, rd, immI
		case xf3Jal:
			in.Op, in.Rd, in.Rs1, in.Imm = OpPJAL, rd, rs1, immI
		}
	case opcXParMem:
		switch f3 {
		case xf3Swcv:
			in.Op, in.Rs1, in.Rs2, in.Imm = OpPSWCV, rs1, rs2, immS
		case xf3Lwcv:
			in.Op, in.Rd, in.Imm = OpPLWCV, rd, immI
			in.Rs1 = 2 // implicit sp
		case xf3Swre:
			in.Op, in.Rs1, in.Rs2, in.Imm = OpPSWRE, rs1, rs2, immS
		}
	}
	return in
}

// refDisassemble renders the instruction in assembler syntax. pc is used to
// print absolute targets for pc-relative instructions.
func refDisassemble(in Inst, pc uint32) string {
	r := func(n uint8) string { return RegNames[n] }
	switch in.Op {
	case OpInvalid:
		return fmt.Sprintf(".word 0x%08x", in.Raw)
	case OpLUI, OpAUIPC:
		return fmt.Sprintf("%s %s, 0x%x", in.Op, r(in.Rd), uint32(in.Imm)>>12)
	case OpJAL:
		return fmt.Sprintf("jal %s, 0x%x", r(in.Rd), pc+uint32(in.Imm))
	case OpJALR:
		return fmt.Sprintf("jalr %s, %d(%s)", r(in.Rd), in.Imm, r(in.Rs1))
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return fmt.Sprintf("%s %s, %s, 0x%x", in.Op, r(in.Rs1), r(in.Rs2), pc+uint32(in.Imm))
	case OpLB, OpLH, OpLW, OpLBU, OpLHU:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, r(in.Rd), in.Imm, r(in.Rs1))
	case OpSB, OpSH, OpSW:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, r(in.Rs2), in.Imm, r(in.Rs1))
	case OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI, OpSLLI, OpSRLI, OpSRAI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, r(in.Rd), r(in.Rs1), in.Imm)
	case OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA, OpOR, OpAND,
		OpMUL, OpMULH, OpMULHSU, OpMULHU, OpDIV, OpDIVU, OpREM, OpREMU:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, r(in.Rd), r(in.Rs1), r(in.Rs2))
	case OpFENCE, OpECALL, OpEBREAK, OpPSYNCM:
		return in.Op.String()
	case OpPFC, OpPFN:
		return fmt.Sprintf("%s %s", in.Op, r(in.Rd))
	case OpPSET:
		return fmt.Sprintf("p_set %s, %s", r(in.Rd), r(in.Rs1))
	case OpPMERGE:
		return fmt.Sprintf("p_merge %s, %s, %s", r(in.Rd), r(in.Rs1), r(in.Rs2))
	case OpPJALR:
		if in.IsPRet() {
			return fmt.Sprintf("p_ret (%s, %s)", r(in.Rs1), r(in.Rs2))
		}
		return fmt.Sprintf("p_jalr %s, %s, %s", r(in.Rd), r(in.Rs1), r(in.Rs2))
	case OpPJAL:
		return fmt.Sprintf("p_jal %s, %s, 0x%x", r(in.Rd), r(in.Rs1), pc+uint32(in.Imm))
	case OpPSWCV:
		return fmt.Sprintf("p_swcv %s, %s, %d", r(in.Rs1), r(in.Rs2), in.Imm)
	case OpPLWCV:
		return fmt.Sprintf("p_lwcv %s, %d", r(in.Rd), in.Imm)
	case OpPSWRE:
		return fmt.Sprintf("p_swre %s, %s, %d", r(in.Rs1), r(in.Rs2), in.Imm)
	case OpPLWRE:
		return fmt.Sprintf("p_lwre %s, %d", r(in.Rd), in.Imm)
	}
	return fmt.Sprintf("%s ???", in.Op)
}

// refClassOf reports the pipeline class of an opcode.
func refClassOf(op Op) Class {
	switch op {
	case OpMUL, OpMULH, OpMULHSU, OpMULHU:
		return ClassMul
	case OpDIV, OpDIVU, OpREM, OpREMU:
		return ClassDiv
	case OpLB, OpLH, OpLW, OpLBU, OpLHU, OpPLWCV:
		return ClassLoad
	case OpSB, OpSH, OpSW, OpPSWCV, OpPSWRE:
		return ClassStore
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return ClassBranch
	case OpJAL, OpJALR, OpPJAL, OpPJALR:
		return ClassJump
	case OpFENCE, OpECALL, OpEBREAK, OpPSYNCM:
		return ClassSystem
	case OpPFC, OpPFN, OpPSET, OpPMERGE, OpPLWRE:
		return ClassXPar
	default:
		return ClassALU
	}
}

// refWritesRd reports whether the instruction produces a register result.
func refWritesRd(i *Inst) bool {
	if i.Rd == 0 {
		return false
	}
	switch refClassOf(i.Op) {
	case ClassStore, ClassBranch, ClassSystem:
		return false
	}
	return true
}

// refReadsRs1 reports whether rs1 is a source operand.
func refReadsRs1(i *Inst) bool {
	switch i.Op {
	case OpLUI, OpAUIPC, OpJAL, OpPFC, OpPFN, OpPSYNCM, OpFENCE,
		OpECALL, OpEBREAK, OpPLWRE:
		return false
	case OpPLWCV:
		// p_lwcv loads relative to the implicit stack pointer (x2).
		return true
	}
	return true
}

// refReadsRs2 reports whether rs2 is a source operand.
func refReadsRs2(i *Inst) bool {
	switch refClassOf(i.Op) {
	case ClassBranch, ClassStore:
		return true
	}
	switch i.Op {
	case OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA,
		OpOR, OpAND, OpMUL, OpMULH, OpMULHSU, OpMULHU, OpDIV, OpDIVU,
		OpREM, OpREMU, OpPMERGE, OpPJALR:
		return true
	}
	return false
}
