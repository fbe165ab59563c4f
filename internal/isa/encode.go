package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// RISC-V major opcodes used by the encoder/decoder.
const (
	opcLUI       = 0x37
	opcAUIPC     = 0x17
	opcJAL       = 0x6F
	opcJALR      = 0x67
	opcBranch    = 0x63
	opcLoad      = 0x03
	opcStore     = 0x23
	opcOpImm     = 0x13
	opcOp        = 0x33
	opcMiscMem   = 0x0F
	opcSystem    = 0x73
	opcXParCtl   = 0x0B // custom-0
	opcXParMem   = 0x2B // custom-1
	funct7MulDiv = 0x01
)

func encR(opc, f3, f7 uint32, rd, rs1, rs2 uint8) uint32 {
	return f7<<25 | uint32(rs2)<<20 | uint32(rs1)<<15 | f3<<12 | uint32(rd)<<7 | opc
}

func encI(opc, f3 uint32, rd, rs1 uint8, imm int32) uint32 {
	return uint32(imm&0xFFF)<<20 | uint32(rs1)<<15 | f3<<12 | uint32(rd)<<7 | opc
}

func encS(opc, f3 uint32, rs1, rs2 uint8, imm int32) uint32 {
	u := uint32(imm)
	return (u>>5&0x7F)<<25 | uint32(rs2)<<20 | uint32(rs1)<<15 | f3<<12 | (u&0x1F)<<7 | opc
}

func encB(opc, f3 uint32, rs1, rs2 uint8, imm int32) uint32 {
	u := uint32(imm)
	return (u>>12&1)<<31 | (u>>5&0x3F)<<25 | uint32(rs2)<<20 | uint32(rs1)<<15 |
		f3<<12 | (u>>1&0xF)<<8 | (u>>11&1)<<7 | opc
}

func encU(opc uint32, rd uint8, imm int32) uint32 {
	return uint32(imm)&0xFFFFF000 | uint32(rd)<<7 | opc
}

func encJ(opc uint32, rd uint8, imm int32) uint32 {
	u := uint32(imm)
	return (u>>20&1)<<31 | (u>>1&0x3FF)<<21 | (u>>11&1)<<20 | (u>>12&0xFF)<<12 |
		uint32(rd)<<7 | opc
}

// Encode produces the 32-bit binary encoding of a decoded instruction.
func Encode(in Inst) (uint32, error) {
	spec := &ops[known(in.Op)]
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
	return 0, fmt.Errorf("isa: cannot encode op %v", in.Op)
}

// opUse is what Decode and DescOf need of a row, worked out from its
// shape once.
type opUse struct {
	flags                    DescFlags // DescReadsRs1 | DescReadsRs2 | DescWritesRd (before the rd != x0 test)
	rdMask, rs1Mask, rs2Mask uint8     // 0x1F where the field carries meaning
	rs1Fix                   uint8     // sp for shape letter s
	immFmt                   byte      // the row's fmt when its shape has an immediate
}

var (
	uses [NumOps]opUse
	// decodeTab is the decoder: the Op of every major opcode × funct3 ×
	// funct7, filled from the rows' own opc/f3/f7 — the fields Encode
	// writes — so the two cannot disagree. A row that selects on less
	// than all three owns every value of the fields it ignores.
	decodeTab [128][8][128]Op
)

func init() {
	// An unassigned word has no operands; its row keeps the answers the
	// predicates have always given it (rs1 read, rd written). Nothing
	// observes them: Decode leaves both registers x0.
	uses[OpInvalid].flags = DescReadsRs1 | DescWritesRd
	for op := OpInvalid + 1; op < NumOps; op++ {
		u := &uses[op]
		for _, k := range ops[op].shape {
			switch k {
			case 'd':
				u.rdMask, u.flags = 0x1F, u.flags|DescWritesRd
			case '1', 'm':
				u.rs1Mask, u.flags = 0x1F, u.flags|DescReadsRs1
			case 's':
				u.rs1Fix, u.flags = 2, u.flags|DescReadsRs1
			case '2':
				u.rs2Mask, u.flags = 0x1F, u.flags|DescReadsRs2
			}
			if strings.ContainsRune("iutm", k) {
				u.immFmt = ops[op].fmt
			}
		}
	}
	for sel := selOpc; sel <= selF7; sel++ {
		for op := OpInvalid + 1; op < NumOps; op++ {
			r := &ops[op]
			if r.sel != sel || r.fmt == 'E' {
				continue // ebreak is ecall with immediate 1: Decode tells them apart
			}
			for f3 := uint32(0); f3 < 8; f3++ {
				for f7 := uint32(0); f7 < 128; f7++ {
					if (sel < selF3 || f3 == r.f3) && (sel < selF7 || f7 == r.f7) {
						decodeTab[r.opc][f3][f7] = op
					}
				}
			}
		}
	}
}

func signExtend(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// Decode interprets a 32-bit word as an instruction. Unknown words decode
// to an Inst with Op == OpInvalid; no error is returned so that the
// pipeline can raise a deterministic machine fault instead.
func Decode(raw uint32) Inst {
	op := decodeTab[raw&0x7F][raw>>12&7][raw>>25]
	if op == OpECALL && raw>>20 == 1 {
		op = OpEBREAK
	}
	u := &uses[op]
	in := Inst{
		Op:  op,
		Rd:  uint8(raw>>7) & u.rdMask,
		Rs1: uint8(raw>>15)&u.rs1Mask | u.rs1Fix,
		Rs2: uint8(raw>>20) & u.rs2Mask,
		Raw: raw,
	}
	switch u.immFmt {
	case 'I':
		in.Imm = signExtend(raw>>20, 12)
	case 'H':
		in.Imm = int32(raw >> 20 & 0x1F) // shamt
	case 'S':
		in.Imm = signExtend(raw>>25<<5|raw>>7&0x1F, 12)
	case 'B':
		in.Imm = signExtend((raw>>31&1)<<12|(raw>>7&1)<<11|(raw>>25&0x3F)<<5|(raw>>8&0xF)<<1, 13)
	case 'U':
		in.Imm = int32(raw & 0xFFFFF000)
	case 'J':
		in.Imm = signExtend((raw>>31&1)<<20|(raw>>12&0xFF)<<12|(raw>>20&1)<<11|(raw>>21&0x3FF)<<1, 21)
	}
	return in
}

// Disassemble renders the instruction in assembler syntax, operand by
// operand as its shape lists them. pc is used to print absolute targets
// for pc-relative instructions.
func Disassemble(in Inst, pc uint32) string {
	switch {
	case in.Op == OpInvalid:
		return fmt.Sprintf(".word 0x%08x", in.Raw)
	case in.Op >= NumOps:
		return fmt.Sprintf("%s ???", in.Op)
	case in.IsPRet():
		return fmt.Sprintf("p_ret (%s, %s)", RegNames[in.Rs1], RegNames[in.Rs2])
	}
	b := make([]byte, 0, 32)
	b = append(b, ops[in.Op].name...)
	sep := " "
	for _, k := range ops[in.Op].shape {
		if k == 's' {
			continue
		}
		b = append(b, sep...)
		sep = ", "
		switch k {
		case 'd':
			b = append(b, RegNames[in.Rd]...)
		case '1':
			b = append(b, RegNames[in.Rs1]...)
		case '2':
			b = append(b, RegNames[in.Rs2]...)
		case 'i':
			b = strconv.AppendInt(b, int64(in.Imm), 10)
		case 'u':
			b = strconv.AppendUint(append(b, "0x"...), uint64(uint32(in.Imm)>>12), 16)
		case 't':
			b = strconv.AppendUint(append(b, "0x"...), uint64(pc+uint32(in.Imm)), 16)
		case 'm':
			b = strconv.AppendInt(b, int64(in.Imm), 10)
			b = append(append(append(b, '('), RegNames[in.Rs1]...), ')')
		}
	}
	return string(b)
}
