package isa

import (
	"testing"
	"unsafe"
)

// Every descriptor field must agree with the switch-based reference
// predicates for every opcode and rd value (rd matters for WritesRd and
// IsPRet). The sources here are never x0, so the read flags are the
// row's.
func TestDescMatchesPredicates(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		for _, rd := range []uint8{0, 1, 31} {
			in := Inst{Op: op, Rd: rd, Rs1: 5, Rs2: 6, Imm: -4, Raw: 0xdeadbeef}
			d := DescOf(in)
			if d.Inst != in {
				t.Fatalf("%v: DescOf mutated the instruction", op)
			}
			if d.Cls != ClassOf(op) {
				t.Errorf("%v: Cls = %d, ClassOf = %d", op, d.Cls, ClassOf(op))
			}
			if d.ReadsRs1() != in.ReadsRs1() {
				t.Errorf("%v: ReadsRs1 = %v, want %v", op, d.ReadsRs1(), in.ReadsRs1())
			}
			if d.ReadsRs2() != in.ReadsRs2() {
				t.Errorf("%v: ReadsRs2 = %v, want %v", op, d.ReadsRs2(), in.ReadsRs2())
			}
			if d.WritesRd() != in.WritesRd() {
				t.Errorf("%v rd=%d: WritesRd = %v, want %v", op, rd, d.WritesRd(), in.WritesRd())
			}
			if d.IsPRet() != in.IsPRet() {
				t.Errorf("%v rd=%d: IsPRet = %v, want %v", op, rd, d.IsPRet(), in.IsPRet())
			}
			wantW, wantSigned := uint8(4), false
			switch op {
			case OpLB:
				wantW, wantSigned = 1, true
			case OpLBU, OpSB:
				wantW = 1
			case OpLH:
				wantW, wantSigned = 2, true
			case OpLHU, OpSH:
				wantW = 2
			}
			if d.MemW != wantW || d.MemSigned() != wantSigned {
				t.Errorf("%v: MemW,Signed = %d,%v want %d,%v",
					op, d.MemW, d.MemSigned(), wantW, wantSigned)
			}
		}
	}
}

// refRecipe is what the simulator's rename stage derived from an
// instruction before the descriptor carried its recipe: the sources it
// looks up, whether the uop needs the result buffer, and how the next pc
// is produced (a switch on the opcode and class).
func refRecipe(in Inst) (reads1, reads2, needsRB bool, next NextPC) {
	reads1 = in.ReadsRs1() && in.Rs1 != 0
	reads2 = in.ReadsRs2() && in.Rs2 != 0
	cls := ClassOf(in.Op)
	needsRB = in.WritesRd() || cls == ClassLoad || (cls == ClassJump && !in.IsPRet())
	switch {
	case in.Op == OpJAL || in.Op == OpPJAL:
		next = NextTarget
	case in.Op == OpJALR || in.Op == OpPJALR || cls == ClassBranch:
		next = NextExecute
	case in.Op == OpPSYNCM:
		next = NextSyncm
	case in.Op == OpECALL || in.Op == OpEBREAK:
		next = NextStop
	default:
		next = NextSeq
	}
	return
}

// TestDescRecipeMatchesRename holds the predecoded rename recipe —
// DescReadsRs1/DescReadsRs2 (a source other than x0), DescNeedsRB and
// Next — to refRecipe for every opcode and every rd/rs1/rs2 in {x0, x5}.
func TestDescRecipeMatchesRename(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		for fields := 0; fields < 8; fields++ {
			reg := func(bit int) uint8 { return uint8(5 * (fields >> bit & 1)) }
			in := Inst{Op: op, Rd: reg(0), Rs1: reg(1), Rs2: reg(2), Imm: 8}
			d := DescOf(in)
			r1, r2, rb, next := refRecipe(in)
			if d.ReadsRs1() != r1 || d.ReadsRs2() != r2 || d.NeedsRB() != rb || d.Next != next {
				t.Errorf("%v rd=%d rs1=%d rs2=%d: reads %v,%v needsRB %v next %d; rename derived %v,%v %v %d",
					op, in.Rd, in.Rs1, in.Rs2, d.ReadsRs1(), d.ReadsRs2(), d.NeedsRB(), d.Next, r1, r2, rb, next)
			}
		}
	}
}

// TestDescSize: a machine holds one Desc per word of its code image;
// the next-pc rule took the byte of the latency class, which the
// pipeline class already implied.
func TestDescSize(t *testing.T) {
	if n := unsafe.Sizeof(Desc{}); n > 20 {
		t.Errorf("Desc is %d bytes, want at most 20", n)
	}
}

func TestDecodeDesc(t *testing.T) {
	// addi x5, x6, 8 = imm[11:0]=8 rs1=6 funct3=000 rd=5 opcode=0010011
	raw := uint32(8)<<20 | 6<<15 | 5<<7 | 0b0010011
	d := DecodeDesc(raw)
	if d.Op() != OpADDI || d.Inst.Rd != 5 || d.Inst.Rs1 != 6 || d.Inst.Imm != 8 {
		t.Fatalf("DecodeDesc(addi) = %+v", d)
	}
}
