package isa

// Operation descriptors: the per-instruction metadata the simulator's
// per-retire hot path needs — pipeline class (which also selects the
// functional-unit latency), operand-read/result-write flags, memory
// access shape and how rename produces the next pc —
// precomputed once at decode so fetch/rename/issue/execute do flag tests
// and one indexed dispatch instead of re-deriving everything from the
// opcode with switches ("threaded code"). A Desc is immutable after
// DescOf; each machine predecodes its code bank into an image of them
// when a program is loaded (internal/lbp's decodeCode).

// DescFlags packs the boolean instruction properties.
type DescFlags uint8

const (
	// DescReadsRs1 marks rs1 as a source operand other than x0
	// (Inst.ReadsRs1 and Rs1 != 0): x0 is no dependence to rename.
	DescReadsRs1 DescFlags = 1 << iota
	// DescReadsRs2 marks rs2 as a source operand other than x0.
	DescReadsRs2
	// DescWritesRd marks a register result (Inst.WritesRd).
	DescWritesRd
	// DescIsPRet marks the p_ret form of p_jalr (Inst.IsPRet).
	DescIsPRet
	// DescMemSigned marks a sign-extending load (lb/lh).
	DescMemSigned
	// DescNeedsRB marks an instruction that occupies the hart's result
	// buffer: a register result, a load, or a jump other than p_ret.
	DescNeedsRB
)

// NextPC says how rename produces the pc after an instruction
// (Figure 10: nextPC leaves the decode stage unless execution must
// resolve it).
type NextPC uint8

const (
	NextSeq     NextPC = iota // pc+4
	NextTarget                // pc+imm: jal, p_jal
	NextExecute               // resolved at execution: branches, jalr, p_jalr
	NextSyncm                 // pc+4 once the hart's memory accesses drain: p_syncm
	NextStop                  // none: ecall/ebreak end execution at commit
)

// Desc is a fully decoded instruction plus its precomputed pipeline
// metadata. The embedded Inst keeps the operand fields and the raw word
// for diagnostics.
type Desc struct {
	Inst  Inst
	Cls   Class
	Flags DescFlags
	MemW  uint8 // load/store access width in bytes (4 for word ops)
	Next  NextPC
}

// ReadsRs1 reports whether rs1 is a source operand other than x0.
func (d *Desc) ReadsRs1() bool { return d.Flags&DescReadsRs1 != 0 }

// ReadsRs2 reports whether rs2 is a source operand other than x0.
func (d *Desc) ReadsRs2() bool { return d.Flags&DescReadsRs2 != 0 }

// WritesRd reports whether the instruction produces a register result.
func (d *Desc) WritesRd() bool { return d.Flags&DescWritesRd != 0 }

// IsPRet reports whether the instruction is p_ret.
func (d *Desc) IsPRet() bool { return d.Flags&DescIsPRet != 0 }

// MemSigned reports whether a load sign-extends its value.
func (d *Desc) MemSigned() bool { return d.Flags&DescMemSigned != 0 }

// NeedsRB reports whether the instruction occupies the result buffer.
func (d *Desc) NeedsRB() bool { return d.Flags&DescNeedsRB != 0 }

// Op returns the opcode.
func (d *Desc) Op() Op { return d.Inst.Op }

// DescOf precomputes the descriptor of a decoded instruction from its
// row of the instruction table, the same source the Inst predicates and
// ClassOf read.
func DescOf(in Inst) Desc {
	d := Desc{Inst: in, Cls: ClassOf(in.Op), Flags: uses[known(in.Op)].flags, MemW: 4}
	if in.Rd == 0 {
		d.Flags &^= DescWritesRd
	}
	if in.Rs1 == 0 {
		d.Flags &^= DescReadsRs1
	}
	if in.Rs2 == 0 {
		d.Flags &^= DescReadsRs2
	}
	if in.IsPRet() {
		d.Flags |= DescIsPRet
	}
	if d.WritesRd() || d.Cls == ClassLoad || (d.Cls == ClassJump && !in.IsPRet()) {
		d.Flags |= DescNeedsRB
	}
	if d.Cls == ClassBranch {
		d.Next = NextExecute
	}
	switch in.Op {
	case OpLB:
		d.MemW, d.Flags = 1, d.Flags|DescMemSigned
	case OpLH:
		d.MemW, d.Flags = 2, d.Flags|DescMemSigned
	case OpLBU, OpSB:
		d.MemW = 1
	case OpLHU, OpSH:
		d.MemW = 2
	case OpJAL, OpPJAL:
		d.Next = NextTarget
	case OpJALR, OpPJALR:
		d.Next = NextExecute
	case OpPSYNCM:
		d.Next = NextSyncm
	case OpECALL, OpEBREAK:
		d.Next = NextStop
	}
	return d
}

// DecodeDesc decodes a raw instruction word straight to its descriptor.
func DecodeDesc(raw uint32) Desc { return DescOf(Decode(raw)) }
