package isa

import (
	"fmt"
	"testing"
)

// TestTableMatchesReference walks every major opcode x funct3 x funct7
// under a few register-field patterns — every assigned, unassigned and
// don't-care encoding — and every Op at the edges of every immediate
// range: whatever is computed from the instruction table equals the
// switch-based reference of reference_test.go, field for field and
// string for string.
func TestTableMatchesReference(t *testing.T) {
	regs := [][3]uint32{{0, 0, 0}, {31, 31, 31}, {1, 2, 3}, {21, 10, 1}, {0, 1, 1}, {5, 0, 30}}
	for opc := uint32(0); opc < 128; opc++ {
		for f3 := uint32(0); f3 < 8; f3++ {
			for f7 := uint32(0); f7 < 128; f7++ {
				for _, r := range regs {
					raw := encR(opc, f3, f7, uint8(r[0]), uint8(r[1]), uint8(r[2]))
					got, want := Decode(raw), refDecode(raw)
					if got != want {
						t.Fatalf("Decode(%#08x) = %+v, reference %+v", raw, got, want)
					}
					checkAgainstReference(t, got)
					enc, err := Encode(got)
					if got.Op == OpInvalid {
						if err == nil {
							t.Fatalf("%#08x: an invalid instruction encodes to %#08x", raw, enc)
						}
						continue
					}
					// Don't-care bits are lost, nothing else: the word the
					// table encodes decodes to the same instruction.
					back := Decode(enc)
					back.Raw = raw
					if err != nil || back != got {
						t.Fatalf("%#08x (%v) re-encodes to %#08x, %v, which decodes to %+v", raw, got.Op, enc, err, back)
					}
					switch opc {
					case opcBranch, opcLoad, opcStore, opcOp: // every bit carries meaning
						if enc != raw {
							t.Fatalf("%#08x (%v) re-encodes to %#08x", raw, got.Op, enc)
						}
					}
				}
			}
		}
	}
	imms := []int32{-1 << 31, -1<<20 - 2, -1 << 20, -4098, -4096, -4095, -2049, -2048, -2, -1, 0, 1, 2,
		31, 32, 2047, 2048, 4094, 4095, 4096, 1<<20 - 2, 1<<20 - 1, 1 << 20, 0x7FFFF000, 1<<31 - 1}
	for op := Op(0); op <= NumOps+1; op++ {
		for _, imm := range imms {
			for _, r := range regs {
				checkAgainstReference(t, Inst{Op: op, Rd: uint8(r[0]), Rs1: uint8(r[1]), Rs2: uint8(r[2]), Imm: imm, Raw: 0xdeadbeef})
			}
		}
	}
	word := encR(opcOp, 5, 0x20, 5, 6, 7)
	if n := testing.AllocsPerRun(100, func() { decodeSink = Decode(word) }); n != 0 {
		t.Errorf("Decode allocates %v times per call, want 0", n)
	}
}

// checkAgainstReference compares everything the table says about one
// instruction — encoding (or the refusal's text), disassembly, class,
// operand predicates — with the reference's answers.
func checkAgainstReference(t *testing.T, in Inst) {
	t.Helper()
	enc, err := Encode(in)
	renc, rerr := refEncode(in)
	if enc != renc || fmt.Sprint(err) != fmt.Sprint(rerr) {
		t.Fatalf("Encode(%+v) = %#08x, %v; reference %#08x, %v", in, enc, err, renc, rerr)
	}
	for _, pc := range []uint32{0, 0x1000, 0xFFFFFFF0} {
		if got, want := Disassemble(in, pc), refDisassemble(in, pc); got != want {
			t.Fatalf("Disassemble(%+v, %#x) = %q, reference %q", in, pc, got, want)
		}
	}
	if got, want := ClassOf(in.Op), refClassOf(in.Op); got != want {
		t.Fatalf("ClassOf(%v) = %d, reference %d", in.Op, got, want)
	}
	if in.ReadsRs1() != refReadsRs1(&in) || in.ReadsRs2() != refReadsRs2(&in) || in.WritesRd() != refWritesRd(&in) {
		t.Fatalf("%+v: reads rs1 %v, reads rs2 %v, writes rd %v; reference %v, %v, %v", in,
			in.ReadsRs1(), in.ReadsRs2(), in.WritesRd(), refReadsRs1(&in), refReadsRs2(&in), refWritesRd(&in))
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
