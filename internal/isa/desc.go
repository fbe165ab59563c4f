package isa

// Operation descriptors: the per-instruction metadata the simulator's
// per-retire hot path needs — pipeline class, operand-read/result-write
// flags, functional-unit latency class and memory access shape —
// precomputed once at decode so fetch/rename/issue/execute do flag tests
// and one indexed dispatch instead of re-deriving everything from the
// opcode with switches ("threaded code"). A Desc is immutable after
// DescOf; each machine predecodes its code bank into an image of them
// when a program is loaded (internal/lbp's decodeCode).

// DescFlags packs the boolean instruction properties.
type DescFlags uint8

const (
	// DescReadsRs1 marks rs1 as a source operand (Inst.ReadsRs1).
	DescReadsRs1 DescFlags = 1 << iota
	// DescReadsRs2 marks rs2 as a source operand (Inst.ReadsRs2).
	DescReadsRs2
	// DescWritesRd marks a register result (Inst.WritesRd).
	DescWritesRd
	// DescIsPRet marks the p_ret form of p_jalr (Inst.IsPRet).
	DescIsPRet
	// DescMemSigned marks a sign-extending load (lb/lh).
	DescMemSigned
)

// LatClass selects a functional-unit latency: the machine maps each
// class to its configured cycle count (ALULat/MulLat/DivLat).
type LatClass uint8

const (
	LatALU LatClass = iota // 1-cycle integer/jump/X_PAR latency class
	LatMul                 // multi-cycle multiply
	LatDiv                 // multi-cycle divide/remainder
	NumLatClasses
)

// Desc is a fully decoded instruction plus its precomputed pipeline
// metadata. The embedded Inst keeps the operand fields and the raw word
// for diagnostics.
type Desc struct {
	Inst  Inst
	Cls   Class
	Flags DescFlags
	Lat   LatClass
	MemW  uint8 // load/store access width in bytes (4 for word ops)
}

// ReadsRs1 reports whether rs1 is a source operand.
func (d *Desc) ReadsRs1() bool { return d.Flags&DescReadsRs1 != 0 }

// ReadsRs2 reports whether rs2 is a source operand.
func (d *Desc) ReadsRs2() bool { return d.Flags&DescReadsRs2 != 0 }

// WritesRd reports whether the instruction produces a register result.
func (d *Desc) WritesRd() bool { return d.Flags&DescWritesRd != 0 }

// IsPRet reports whether the instruction is p_ret.
func (d *Desc) IsPRet() bool { return d.Flags&DescIsPRet != 0 }

// MemSigned reports whether a load sign-extends its value.
func (d *Desc) MemSigned() bool { return d.Flags&DescMemSigned != 0 }

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
	if in.IsPRet() {
		d.Flags |= DescIsPRet
	}
	switch d.Cls {
	case ClassMul:
		d.Lat = LatMul
	case ClassDiv:
		d.Lat = LatDiv
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
	}
	return d
}

// DecodeDesc decodes a raw instruction word straight to its descriptor.
func DecodeDesc(raw uint32) Desc { return DescOf(Decode(raw)) }
