package isa

import "testing"

// The decoder's opcode tables as Decode used to build them, one map
// literal per call: the reference the fixed tables are checked against.
type rKey struct {
	f3, f7 uint32
}

var (
	refBranchOps = map[uint32]Op{0: OpBEQ, 1: OpBNE, 4: OpBLT, 5: OpBGE, 6: OpBLTU, 7: OpBGEU}
	refLoadOps   = map[uint32]Op{0: OpLB, 1: OpLH, 2: OpLW, 4: OpLBU, 5: OpLHU}
	refStoreOps  = map[uint32]Op{0: OpSB, 1: OpSH, 2: OpSW}
	refOpOps     = map[rKey]Op{
		{0, 0x00}: OpADD, {0, 0x20}: OpSUB, {1, 0x00}: OpSLL,
		{2, 0x00}: OpSLT, {3, 0x00}: OpSLTU, {4, 0x00}: OpXOR,
		{5, 0x00}: OpSRL, {5, 0x20}: OpSRA, {6, 0x00}: OpOR,
		{7, 0x00}: OpAND,
		{0, 0x01}: OpMUL, {1, 0x01}: OpMULH, {2, 0x01}: OpMULHSU,
		{3, 0x01}: OpMULHU, {4, 0x01}: OpDIV, {5, 0x01}: OpDIVU,
		{6, 0x01}: OpREM, {7, 0x01}: OpREMU,
	}
)

// TestDecodeMatchesReferenceTables walks every funct3 × funct7 of the
// four table-decoded major opcodes: the opcode is the reference maps',
// operands are filled in exactly when the encoding is assigned, and
// decoding allocates nothing.
func TestDecodeMatchesReferenceTables(t *testing.T) {
	const rd, rs1, rs2 = 5, 6, 7
	for f3 := uint32(0); f3 < 8; f3++ {
		for f7 := uint32(0); f7 < 128; f7++ {
			want := map[uint32]Op{
				opcBranch: refBranchOps[f3],
				opcLoad:   refLoadOps[f3],
				opcStore:  refStoreOps[f3],
				opcOp:     refOpOps[rKey{f3, f7}],
			}
			for opc, op := range want {
				raw := encR(opc, f3, f7, rd, rs1, rs2)
				got := Decode(raw)
				if got.Op != op {
					t.Fatalf("opcode %#x funct3 %d funct7 %#x decodes to %v, reference says %v", opc, f3, f7, got.Op, op)
				}
				if op == OpInvalid {
					if got != (Inst{Raw: raw}) {
						t.Fatalf("unassigned encoding %#08x decodes with operands: %+v", raw, got)
					}
					continue
				}
				if enc, err := Encode(got); err != nil || enc != raw {
					t.Fatalf("%#08x (%v) re-encodes to %#08x, %v", raw, op, enc, err)
				}
			}
		}
	}
	word := encR(opcOp, 5, 0x20, rd, rs1, rs2)
	if n := testing.AllocsPerRun(100, func() { decodeSink = Decode(word) }); n != 0 {
		t.Errorf("Decode allocates %v times per call, want 0", n)
	}
}

var (
	decodeSink Inst
	descSink   Desc
)

// BenchmarkDecodeDesc decodes a 304-word program-like mix, the work one
// program load does per code word (lbp.Machine.decodeCode).
func BenchmarkDecodeDesc(b *testing.B) {
	mix := []Inst{
		{Op: OpADDI, Rd: 5, Rs1: 5, Imm: -1}, {Op: OpLW, Rd: 6, Rs1: 2, Imm: 8},
		{Op: OpADD, Rd: 7, Rs1: 5, Rs2: 6}, {Op: OpMUL, Rd: 7, Rs1: 7, Rs2: 6},
		{Op: OpSW, Rs1: 2, Rs2: 7, Imm: 12}, {Op: OpBNE, Rs1: 5, Rs2: 0, Imm: -20},
		{Op: OpPFC, Rd: 10}, {Op: OpPSWCV, Rs1: 10, Rs2: 7, Imm: 4},
	}
	words := make([]uint32, 0, 304)
	for len(words) < cap(words) {
		for _, in := range mix {
			w, err := Encode(in)
			if err != nil {
				b.Fatal(err)
			}
			words = append(words, w)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(4 * len(words)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range words {
			descSink = DecodeDesc(w)
		}
	}
}
