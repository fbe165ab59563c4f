package lbp

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// TestExecTabMatchesReference drives every ALU-, multiply-, divide- and
// branch-class execTab entry directly and checks the result
// value, latency charge and next-pc decision against the reference
// switch semantics (aluCompute, branchTaken, latencyOf) over randomized
// operands. This is the executable proof that the threaded-code table
// preserves the old interpreter's semantics op by op.
func TestExecTabMatchesReference(t *testing.T) {
	m := New(DefaultConfig(1))
	c := m.cores[0]
	h := c.harts[0]
	rng := rand.New(rand.NewSource(7))

	operands := func(i int) (uint32, uint32) {
		switch i {
		case 0:
			return 0, 0
		case 1:
			return 0x80000000, 0xFFFFFFFF // div/rem overflow case
		case 2:
			return 0xFFFFFFFF, 0 // div-by-zero case
		default:
			return rng.Uint32(), rng.Uint32()
		}
	}

	for op := isa.Op(0); op < isa.NumOps; op++ {
		cls := isa.ClassOf(op)
		switch cls {
		case isa.ClassALU, isa.ClassMul, isa.ClassDiv, isa.ClassBranch:
		default:
			continue // mem/system/xpar ops need machine context; covered by the suite
		}
		if op == isa.OpInvalid || op == isa.OpPSET || op == isa.OpPMERGE {
			// p_set/p_merge classify as ALU in the table but read hart
			// identity, not just operands; covered by the xpar tests.
			continue
		}
		for trial := 0; trial < 64; trial++ {
			s1, s2 := operands(trial)
			imm := int32(rng.Intn(1<<12) - (1 << 11))
			in := isa.Inst{Op: op, Rd: 5, Rs1: 6, Rs2: 7, Imm: imm}
			d := isa.DescOf(in)
			pc := uint32(0x1000 + 4*trial)
			u := &h.Rob[0]
			*u = uop{d: &d, PC: pc, Src1: s1, Src2: s2, Dep1: noSlot, Dep2: noSlot}

			h.Exec = noSlot
			h.ExecReadyAt = 0
			h.PCValid = false
			h.PC = 0
			now := uint64(1000 + trial)
			execTab[op](c, h, u, now)
			if m.err != nil {
				t.Fatalf("%v: unexpected fault: %v", op, m.err)
			}

			if cls == isa.ClassBranch {
				want := branchTaken(op, s1, s2)
				wantPC := pc + 4
				if want {
					wantPC = pc + uint32(imm)
				}
				if !u.Done {
					t.Fatalf("%v: branch did not retire", op)
				}
				if !h.PCValid || h.PC != wantPC {
					t.Fatalf("%v(s1=%#x s2=%#x): pc=%#x want %#x", op, s1, s2, h.PC, wantPC)
				}
				continue
			}
			want := aluCompute(&in, s1, s2, pc)
			if u.Value != want {
				t.Fatalf("%v(s1=%#x s2=%#x imm=%d): value %#x, reference %#x",
					op, s1, s2, imm, u.Value, want)
			}
			if h.Exec != u.slot {
				t.Fatalf("%v: result did not enter the execution slot", op)
			}
			if wantReady := now + m.latencyOf(op); h.ExecReadyAt != wantReady {
				t.Fatalf("%v: readyAt %d, reference latency gives %d", op, h.ExecReadyAt, wantReady)
			}
		}
	}
}

// TestExecTabComplete: every opcode the decoder can produce has a
// dispatch entry (the init fill guarantees no nil slots at all).
func TestExecTabComplete(t *testing.T) {
	for op := isa.Op(0); op < isa.NumOps; op++ {
		if execTab[op] == nil {
			t.Errorf("execTab[%v] is nil", op)
		}
	}
}
