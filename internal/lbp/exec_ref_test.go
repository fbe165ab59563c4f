package lbp

import "repro/internal/isa"

// Reference semantics. The switch forms below predate the dispatch
// table in exec.go and are retained as the executable specification:
// exec_test.go and exec_tab_test.go check every execTab entry and
// descriptor against them over exhaustive opcode and randomized operand
// sweeps. Nothing outside the tests calls them.

// aluCompute evaluates a register-result instruction from its operand
// values. pc is the instruction's own address (for auipc/jal link values).
func aluCompute(in *isa.Inst, s1, s2, pc uint32) uint32 {
	imm := uint32(in.Imm)
	switch in.Op {
	case isa.OpLUI:
		return imm
	case isa.OpAUIPC:
		return pc + imm
	case isa.OpADDI:
		return s1 + imm
	case isa.OpSLTI:
		if int32(s1) < in.Imm {
			return 1
		}
		return 0
	case isa.OpSLTIU:
		if s1 < imm {
			return 1
		}
		return 0
	case isa.OpXORI:
		return s1 ^ imm
	case isa.OpORI:
		return s1 | imm
	case isa.OpANDI:
		return s1 & imm
	case isa.OpSLLI:
		return s1 << (imm & 31)
	case isa.OpSRLI:
		return s1 >> (imm & 31)
	case isa.OpSRAI:
		return uint32(int32(s1) >> (imm & 31))
	case isa.OpADD:
		return s1 + s2
	case isa.OpSUB:
		return s1 - s2
	case isa.OpSLL:
		return s1 << (s2 & 31)
	case isa.OpSLT:
		if int32(s1) < int32(s2) {
			return 1
		}
		return 0
	case isa.OpSLTU:
		if s1 < s2 {
			return 1
		}
		return 0
	case isa.OpXOR:
		return s1 ^ s2
	case isa.OpSRL:
		return s1 >> (s2 & 31)
	case isa.OpSRA:
		return uint32(int32(s1) >> (s2 & 31))
	case isa.OpOR:
		return s1 | s2
	case isa.OpAND:
		return s1 & s2
	case isa.OpMUL:
		return s1 * s2
	case isa.OpMULH:
		return uint32(uint64(int64(int32(s1))*int64(int32(s2))) >> 32)
	case isa.OpMULHSU:
		return uint32(uint64(int64(int32(s1))*int64(s2)) >> 32)
	case isa.OpMULHU:
		return uint32(uint64(s1) * uint64(s2) >> 32)
	case isa.OpDIV:
		return divRV(s1, s2)
	case isa.OpDIVU:
		if s2 == 0 {
			return 0xFFFFFFFF
		}
		return s1 / s2
	case isa.OpREM:
		return remRV(s1, s2)
	case isa.OpREMU:
		if s2 == 0 {
			return s1
		}
		return s1 % s2
	}
	return 0
}

// branchTaken evaluates a conditional branch.
func branchTaken(op isa.Op, s1, s2 uint32) bool {
	switch op {
	case isa.OpBEQ:
		return s1 == s2
	case isa.OpBNE:
		return s1 != s2
	case isa.OpBLT:
		return int32(s1) < int32(s2)
	case isa.OpBGE:
		return int32(s1) >= int32(s2)
	case isa.OpBLTU:
		return s1 < s2
	case isa.OpBGEU:
		return s1 >= s2
	}
	return false
}

// latencyOf returns the functional-unit latency of a value-producing op
// (reference for the class-indexed latency table; the hot path reads
// m.latTab[u.d.Cls]).
func (m *Machine) latencyOf(op isa.Op) uint64 {
	switch isa.ClassOf(op) {
	case isa.ClassMul:
		return uint64(m.cfg.MulLat)
	case isa.ClassDiv:
		return uint64(m.cfg.DivLat)
	default:
		return uint64(m.cfg.ALULat)
	}
}

// memWidth maps a load/store opcode to its access width and signedness
// (reference for Desc.MemW/DescMemSigned).
func memWidth(op isa.Op) (w memWidthT, signed bool) {
	switch op {
	case isa.OpLB:
		return widthByte, true
	case isa.OpLBU, isa.OpSB:
		return widthByte, false
	case isa.OpLH:
		return widthHalf, true
	case isa.OpLHU, isa.OpSH:
		return widthHalf, false
	default:
		return widthWord, false
	}
}

type memWidthT uint8

const (
	widthByte memWidthT = 1
	widthHalf memWidthT = 2
	widthWord memWidthT = 4
)
