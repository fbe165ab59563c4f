// Package isa defines the instruction set simulated by the LBP machine:
// the RV32IM base integer instruction set plus the X_PAR (PISC) extension
// described in the paper "Deterministic OpenMP and the LBP Parallelizing
// Manycore Processor" (Figure 5).
//
// What an instruction looks like is stated once, in the table ops: one
// row per Op with its mnemonic, encoding, operand shape and pipeline
// class. The encoder, the decoder, the disassembler, the operand
// predicates and the operation descriptors (desc.go) are computed from
// the rows, and so are the assembler's and the compiler's view of the
// instruction set. The encodings follow the standard RISC-V formats
// (R/I/S/B/U/J); X_PAR instructions live in the custom-0 (0001011) and
// custom-1 (0101011) major opcode spaces.
package isa

import "fmt"

// Op enumerates every instruction the machine understands, after decoding.
type Op uint8

// RV32I base instructions, RV32M multiply/divide extension, and the twelve
// X_PAR instructions of Figure 5.
const (
	OpInvalid Op = iota

	// RV32I
	OpLUI
	OpAUIPC
	OpJAL
	OpJALR
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	OpLB
	OpLH
	OpLW
	OpLBU
	OpLHU
	OpSB
	OpSH
	OpSW
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND
	OpFENCE
	OpECALL
	OpEBREAK

	// RV32M
	OpMUL
	OpMULH
	OpMULHSU
	OpMULHU
	OpDIV
	OpDIVU
	OpREM
	OpREMU

	// X_PAR (PISC) extension, Figure 5 of the paper.
	OpPFC    // p_fc rd: allocate a free hart on the current core
	OpPFN    // p_fn rd: allocate a free hart on the next core
	OpPSET   // p_set rd, rs1: build a hart identity word
	OpPMERGE // p_merge rd, rs1, rs2: merge home and link hart identities
	OpPSYNCM // p_syncm: block fetch until in-flight memory accesses are done
	OpPJAL   // p_jal rd, rs1, off: call pc+off locally, send pc+4 to rs1 hart
	OpPJALR  // p_jalr rd, rs1, rs2: call rs2 locally, send pc+4 to rs1 hart;
	// with rd == x0 this is p_ret, the hart ending protocol
	OpPSWCV // p_swcv rs1, rs2, off: store rs2 on the rs1 hart stack at off
	OpPLWCV // p_lwcv rd, off: load rd from the local stack at off
	OpPSWRE // p_swre rs1, rs2, idx: send rs2 to rs1 hart result buffer idx
	OpPLWRE // p_lwre rd, idx: receive rd from local result buffer idx

	NumOps // sentinel
)

// A Shape lists an instruction's assembly operands in source order, one
// letter each:
//
//	d  rd            1  rs1            2  rs2
//	i  immediate     u  upper immediate, written as the value of bits 31:12
//	t  pc-relative target, written as an absolute address (or a label)
//	m  off(rs1)      s  rs1 is sp, implied: it takes no source operand
//
// The shape is also which fields of an Inst carry meaning — Decode fills
// exactly those — and which registers the instruction reads (1, 2, m, s)
// and writes (d).
type Shape = string

// sel is how much of a word selects a row when decoding: the major
// opcode alone, opcode and funct3, or opcode, funct3 and funct7. Where
// two rows overlap (srli/srai) the one that looks at more wins.
const (
	selOpc uint8 = 1 + iota
	selF3
	selF7
)

// opInfo is one row of the instruction table: everything about an
// instruction that is format rather than behaviour. Encode, Decode,
// Disassemble, ClassOf, the Reads/Writes predicates and DescOf are
// computed from it, and so are the assembler's operand parsing
// (internal/asm) and the peephole optimizer's register roles
// (internal/cc). Adding an instruction is one row here and one entry in
// internal/lbp's execTab.
type opInfo struct {
	name        string
	opc, f3, f7 uint32
	fmt         byte // R I S B U J; H: I with funct7 above a 5-bit shamt; E: I with the immediate fixed at 1
	sel         uint8
	shape       Shape
	class       Class
}

// ops is the instruction table: RV32I, RV32M, and the X_PAR instructions
// of the paper's Figure 5 in the custom-0 and custom-1 opcode spaces.
var ops = [NumOps]opInfo{
	OpInvalid: {name: "invalid"},

	OpLUI:    {"lui", opcLUI, 0, 0, 'U', selOpc, "du", ClassALU},
	OpAUIPC:  {"auipc", opcAUIPC, 0, 0, 'U', selOpc, "du", ClassALU},
	OpJAL:    {"jal", opcJAL, 0, 0, 'J', selOpc, "dt", ClassJump},
	OpJALR:   {"jalr", opcJALR, 0, 0, 'I', selF3, "dm", ClassJump},
	OpBEQ:    {"beq", opcBranch, 0, 0, 'B', selF3, "12t", ClassBranch},
	OpBNE:    {"bne", opcBranch, 1, 0, 'B', selF3, "12t", ClassBranch},
	OpBLT:    {"blt", opcBranch, 4, 0, 'B', selF3, "12t", ClassBranch},
	OpBGE:    {"bge", opcBranch, 5, 0, 'B', selF3, "12t", ClassBranch},
	OpBLTU:   {"bltu", opcBranch, 6, 0, 'B', selF3, "12t", ClassBranch},
	OpBGEU:   {"bgeu", opcBranch, 7, 0, 'B', selF3, "12t", ClassBranch},
	OpLB:     {"lb", opcLoad, 0, 0, 'I', selF3, "dm", ClassLoad},
	OpLH:     {"lh", opcLoad, 1, 0, 'I', selF3, "dm", ClassLoad},
	OpLW:     {"lw", opcLoad, 2, 0, 'I', selF3, "dm", ClassLoad},
	OpLBU:    {"lbu", opcLoad, 4, 0, 'I', selF3, "dm", ClassLoad},
	OpLHU:    {"lhu", opcLoad, 5, 0, 'I', selF3, "dm", ClassLoad},
	OpSB:     {"sb", opcStore, 0, 0, 'S', selF3, "2m", ClassStore},
	OpSH:     {"sh", opcStore, 1, 0, 'S', selF3, "2m", ClassStore},
	OpSW:     {"sw", opcStore, 2, 0, 'S', selF3, "2m", ClassStore},
	OpADDI:   {"addi", opcOpImm, 0, 0, 'I', selF3, "d1i", ClassALU},
	OpSLTI:   {"slti", opcOpImm, 2, 0, 'I', selF3, "d1i", ClassALU},
	OpSLTIU:  {"sltiu", opcOpImm, 3, 0, 'I', selF3, "d1i", ClassALU},
	OpXORI:   {"xori", opcOpImm, 4, 0, 'I', selF3, "d1i", ClassALU},
	OpORI:    {"ori", opcOpImm, 6, 0, 'I', selF3, "d1i", ClassALU},
	OpANDI:   {"andi", opcOpImm, 7, 0, 'I', selF3, "d1i", ClassALU},
	OpSLLI:   {"slli", opcOpImm, 1, 0x00, 'H', selF3, "d1i", ClassALU},
	OpSRLI:   {"srli", opcOpImm, 5, 0x00, 'H', selF3, "d1i", ClassALU},
	OpSRAI:   {"srai", opcOpImm, 5, 0x20, 'H', selF7, "d1i", ClassALU},
	OpADD:    {"add", opcOp, 0, 0x00, 'R', selF7, "d12", ClassALU},
	OpSUB:    {"sub", opcOp, 0, 0x20, 'R', selF7, "d12", ClassALU},
	OpSLL:    {"sll", opcOp, 1, 0x00, 'R', selF7, "d12", ClassALU},
	OpSLT:    {"slt", opcOp, 2, 0x00, 'R', selF7, "d12", ClassALU},
	OpSLTU:   {"sltu", opcOp, 3, 0x00, 'R', selF7, "d12", ClassALU},
	OpXOR:    {"xor", opcOp, 4, 0x00, 'R', selF7, "d12", ClassALU},
	OpSRL:    {"srl", opcOp, 5, 0x00, 'R', selF7, "d12", ClassALU},
	OpSRA:    {"sra", opcOp, 5, 0x20, 'R', selF7, "d12", ClassALU},
	OpOR:     {"or", opcOp, 6, 0x00, 'R', selF7, "d12", ClassALU},
	OpAND:    {"and", opcOp, 7, 0x00, 'R', selF7, "d12", ClassALU},
	OpFENCE:  {"fence", opcMiscMem, 0, 0, 'I', selOpc, "", ClassSystem},
	OpECALL:  {"ecall", opcSystem, 0, 0, 'I', selOpc, "", ClassSystem},
	OpEBREAK: {"ebreak", opcSystem, 0, 0, 'E', selOpc, "", ClassSystem},

	OpMUL:    {"mul", opcOp, 0, funct7MulDiv, 'R', selF7, "d12", ClassMul},
	OpMULH:   {"mulh", opcOp, 1, funct7MulDiv, 'R', selF7, "d12", ClassMul},
	OpMULHSU: {"mulhsu", opcOp, 2, funct7MulDiv, 'R', selF7, "d12", ClassMul},
	OpMULHU:  {"mulhu", opcOp, 3, funct7MulDiv, 'R', selF7, "d12", ClassMul},
	OpDIV:    {"div", opcOp, 4, funct7MulDiv, 'R', selF7, "d12", ClassDiv},
	OpDIVU:   {"divu", opcOp, 5, funct7MulDiv, 'R', selF7, "d12", ClassDiv},
	OpREM:    {"rem", opcOp, 6, funct7MulDiv, 'R', selF7, "d12", ClassDiv},
	OpREMU:   {"remu", opcOp, 7, funct7MulDiv, 'R', selF7, "d12", ClassDiv},

	OpPFC:    {"p_fc", opcXParCtl, 0, 0x00, 'R', selF7, "d", ClassXPar},
	OpPFN:    {"p_fn", opcXParCtl, 0, 0x01, 'R', selF7, "d", ClassXPar},
	OpPSET:   {"p_set", opcXParCtl, 1, 0, 'R', selF3, "d1", ClassXPar},
	OpPMERGE: {"p_merge", opcXParCtl, 2, 0, 'R', selF3, "d12", ClassXPar},
	OpPSYNCM: {"p_syncm", opcXParCtl, 3, 0, 'R', selF3, "", ClassSystem},
	OpPJALR:  {"p_jalr", opcXParCtl, 4, 0, 'R', selF3, "d12", ClassJump},
	OpPLWRE:  {"p_lwre", opcXParCtl, 5, 0, 'I', selF3, "di", ClassXPar},
	OpPJAL:   {"p_jal", opcXParCtl, 6, 0, 'I', selF3, "d1t", ClassJump},
	OpPSWCV:  {"p_swcv", opcXParMem, 0, 0, 'S', selF3, "12i", ClassStore},
	OpPLWCV:  {"p_lwcv", opcXParMem, 1, 0, 'I', selF3, "dis", ClassLoad},
	OpPSWRE:  {"p_swre", opcXParMem, 2, 0, 'S', selF3, "12i", ClassStore},
}

// known maps an out-of-range Op to OpInvalid, whose row answers for it.
func known(op Op) Op {
	if op >= NumOps {
		return OpInvalid
	}
	return op
}

// String returns the assembler mnemonic of the opcode.
func (o Op) String() string {
	if o < NumOps {
		return ops[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Shape returns the assembly operand list of the opcode.
func (o Op) Shape() Shape { return ops[known(o)].shape }

// Inst is a decoded instruction. Imm is sign-extended where the format
// calls for it.
type Inst struct {
	Op   Op
	Rd   uint8
	Rs1  uint8
	Rs2  uint8
	Imm  int32
	Raw  uint32 // original encoding, for diagnostics
	Addr uint32 // address the instruction was fetched from (filled by users)
}

// Class groups opcodes by the pipeline resources they use.
type Class uint8

const (
	ClassALU    Class = iota // 1-cycle integer operation
	ClassMul                 // multi-cycle multiply
	ClassDiv                 // multi-cycle divide/remainder
	ClassLoad                // memory read, result via the result buffer
	ClassStore               // memory write, no result
	ClassBranch              // conditional branch, resolves next pc
	ClassJump                // jal/jalr, writes rd and redirects fetch
	ClassSystem              // fence/ecall/ebreak/p_syncm
	ClassXPar                // X_PAR control instructions (fork, set, ...)
	NumClasses
)

// ClassOf reports the pipeline class of an opcode.
func ClassOf(op Op) Class { return ops[known(op)].class }

// WritesRd reports whether the instruction produces a register result.
func (i *Inst) WritesRd() bool { return i.Rd != 0 && uses[known(i.Op)].flags&DescWritesRd != 0 }

// ReadsRs1 reports whether rs1 is a source operand (p_lwcv's is the
// implied stack pointer).
func (i *Inst) ReadsRs1() bool { return uses[known(i.Op)].flags&DescReadsRs1 != 0 }

// ReadsRs2 reports whether rs2 is a source operand.
func (i *Inst) ReadsRs2() bool { return uses[known(i.Op)].flags&DescReadsRs2 != 0 }

// IsPRet reports whether the instruction is the p_ret form of p_jalr
// (rd == x0), which runs the hart ending protocol of Figure 6.
func (i *Inst) IsPRet() bool {
	return i.Op == OpPJALR && i.Rd == 0
}

// Register ABI names, indexed by register number.
var RegNames = [32]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// regNums maps every ABI register name, and fp, to its number.
var regNums = func() map[string]uint8 {
	m := map[string]uint8{"fp": 8}
	for i, n := range RegNames {
		m[n] = uint8(i)
	}
	return m
}()

// RegByName maps an ABI or numeric (x0..x31, at most two digits)
// register name to its number.
func RegByName(name string) (uint8, bool) {
	if r, ok := regNums[name]; ok {
		return r, true
	}
	if len(name) < 2 || len(name) > 3 || name[0] != 'x' {
		return 0, false
	}
	n := 0
	for _, c := range name[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return uint8(n), n < 32
}
