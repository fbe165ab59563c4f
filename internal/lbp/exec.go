package lbp

import "repro/internal/isa"

// Threaded-code dispatch. Issue executes an instruction with one indexed
// call through execTab instead of re-classifying the opcode with
// switches: every opcode has its own execFn, and per-instruction
// metadata (operand flags, latency class, memory width) comes
// precomputed from the uop's descriptor (isa.Desc, decoded once per
// program image — see decode.go). The switch-based functions the table
// replaced are kept as the reference semantics in exec_ref_test.go;
// exec_test.go checks the table against them exhaustively.

// execFn performs the semantics of one issued instruction.
type execFn func(c *core, h *hart, u *uop, now uint64)

// execTab is the dispatch table, indexed by opcode.
var execTab [isa.NumOps]execFn

func init() {
	t := &execTab
	for op := range t {
		// Defensive: fetch rejects OpInvalid, so no table hole is reachable.
		t[op] = execUnknown
	}

	// Register-result operations share finishALU, which charges the
	// descriptor's functional-unit latency class.
	alu := func(op isa.Op, fn func(u *uop) uint32) {
		t[op] = func(c *core, h *hart, u *uop, now uint64) {
			finishALU(c, h, u, now, fn(u))
		}
	}
	alu(isa.OpLUI, func(u *uop) uint32 { return uint32(u.d.Inst.Imm) })
	alu(isa.OpAUIPC, func(u *uop) uint32 { return u.pc + uint32(u.d.Inst.Imm) })
	alu(isa.OpADDI, func(u *uop) uint32 { return u.src1 + uint32(u.d.Inst.Imm) })
	alu(isa.OpSLTI, func(u *uop) uint32 { return b2u(int32(u.src1) < u.d.Inst.Imm) })
	alu(isa.OpSLTIU, func(u *uop) uint32 { return b2u(u.src1 < uint32(u.d.Inst.Imm)) })
	alu(isa.OpXORI, func(u *uop) uint32 { return u.src1 ^ uint32(u.d.Inst.Imm) })
	alu(isa.OpORI, func(u *uop) uint32 { return u.src1 | uint32(u.d.Inst.Imm) })
	alu(isa.OpANDI, func(u *uop) uint32 { return u.src1 & uint32(u.d.Inst.Imm) })
	alu(isa.OpSLLI, func(u *uop) uint32 { return u.src1 << (uint32(u.d.Inst.Imm) & 31) })
	alu(isa.OpSRLI, func(u *uop) uint32 { return u.src1 >> (uint32(u.d.Inst.Imm) & 31) })
	alu(isa.OpSRAI, func(u *uop) uint32 { return uint32(int32(u.src1) >> (uint32(u.d.Inst.Imm) & 31)) })
	alu(isa.OpADD, func(u *uop) uint32 { return u.src1 + u.src2 })
	alu(isa.OpSUB, func(u *uop) uint32 { return u.src1 - u.src2 })
	alu(isa.OpSLL, func(u *uop) uint32 { return u.src1 << (u.src2 & 31) })
	alu(isa.OpSLT, func(u *uop) uint32 { return b2u(int32(u.src1) < int32(u.src2)) })
	alu(isa.OpSLTU, func(u *uop) uint32 { return b2u(u.src1 < u.src2) })
	alu(isa.OpXOR, func(u *uop) uint32 { return u.src1 ^ u.src2 })
	alu(isa.OpSRL, func(u *uop) uint32 { return u.src1 >> (u.src2 & 31) })
	alu(isa.OpSRA, func(u *uop) uint32 { return uint32(int32(u.src1) >> (u.src2 & 31)) })
	alu(isa.OpOR, func(u *uop) uint32 { return u.src1 | u.src2 })
	alu(isa.OpAND, func(u *uop) uint32 { return u.src1 & u.src2 })
	alu(isa.OpMUL, func(u *uop) uint32 { return u.src1 * u.src2 })
	alu(isa.OpMULH, func(u *uop) uint32 {
		return uint32(uint64(int64(int32(u.src1))*int64(int32(u.src2))) >> 32)
	})
	alu(isa.OpMULHSU, func(u *uop) uint32 {
		return uint32(uint64(int64(int32(u.src1))*int64(u.src2)) >> 32)
	})
	alu(isa.OpMULHU, func(u *uop) uint32 { return uint32(uint64(u.src1) * uint64(u.src2) >> 32) })
	alu(isa.OpDIV, func(u *uop) uint32 { return divRV(u.src1, u.src2) })
	alu(isa.OpDIVU, func(u *uop) uint32 {
		if u.src2 == 0 {
			return 0xFFFFFFFF
		}
		return u.src1 / u.src2
	})
	alu(isa.OpREM, func(u *uop) uint32 { return remRV(u.src1, u.src2) })
	alu(isa.OpREMU, func(u *uop) uint32 {
		if u.src2 == 0 {
			return u.src1
		}
		return u.src1 % u.src2
	})

	br := func(op isa.Op, taken func(s1, s2 uint32) bool) {
		t[op] = func(c *core, h *hart, u *uop, now uint64) {
			finishBranch(h, u, now, taken(u.src1, u.src2))
		}
	}
	br(isa.OpBEQ, func(s1, s2 uint32) bool { return s1 == s2 })
	br(isa.OpBNE, func(s1, s2 uint32) bool { return s1 != s2 })
	br(isa.OpBLT, func(s1, s2 uint32) bool { return int32(s1) < int32(s2) })
	br(isa.OpBGE, func(s1, s2 uint32) bool { return int32(s1) >= int32(s2) })
	br(isa.OpBLTU, func(s1, s2 uint32) bool { return s1 < s2 })
	br(isa.OpBGEU, func(s1, s2 uint32) bool { return s1 >= s2 })

	t[isa.OpJAL] = execJAL
	t[isa.OpJALR] = execJALR
	t[isa.OpPJAL] = execPJAL
	t[isa.OpPJALR] = execPJALR

	for _, op := range []isa.Op{isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLBU, isa.OpLHU, isa.OpPLWCV} {
		t[op] = (*core).execLoad
	}
	for _, op := range []isa.Op{isa.OpSB, isa.OpSH, isa.OpSW} {
		t[op] = (*core).execStore
	}
	t[isa.OpPSWCV] = (*core).execSwcv
	t[isa.OpPSWRE] = (*core).execSwre

	for _, op := range []isa.Op{isa.OpFENCE, isa.OpECALL, isa.OpEBREAK, isa.OpPSYNCM} {
		t[op] = execSystem
	}

	t[isa.OpPFC] = (*core).execPFC
	t[isa.OpPFN] = (*core).execPFN
	t[isa.OpPSET] = execPSET
	t[isa.OpPMERGE] = execPMERGE
	t[isa.OpPLWRE] = (*core).execPLWRE
}

// finishALU records a register result and charges the functional-unit
// latency of the uop's descriptor class (ALU, multiply or divide).
func finishALU(c *core, h *hart, u *uop, now uint64, v uint32) {
	u.value = v
	c.startExec(h, u, now+c.m.latTab[u.d.Lat])
}

// finishBranch resolves a conditional branch: the next pc leaves the
// execute stage, and the branch itself retires with no register result.
func finishBranch(h *hart, u *uop, now uint64, taken bool) {
	target := u.pc + 4
	if taken {
		target = u.pc + uint32(u.d.Inst.Imm)
	}
	h.pc = target
	h.pcValid = true
	h.pcReadyCycle = now + 1
	u.done = true
}

func execSystem(c *core, h *hart, u *uop, now uint64) {
	// fence is a no-op (no caches), ecall/ebreak terminate at commit,
	// p_syncm acted at rename.
	u.done = true
}

func execUnknown(c *core, h *hart, u *uop, now uint64) {
	c.faultf(h.idx, "unhandled op %v (pc %#x)", u.d.Inst.Op, u.pc)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func divRV(s1, s2 uint32) uint32 {
	if s2 == 0 {
		return 0xFFFFFFFF
	}
	if s1 == 0x80000000 && s2 == 0xFFFFFFFF {
		return 0x80000000 // overflow per RISC-V spec
	}
	return uint32(int32(s1) / int32(s2))
}

func remRV(s1, s2 uint32) uint32 {
	if s2 == 0 {
		return s1
	}
	if s1 == 0x80000000 && s2 == 0xFFFFFFFF {
		return 0
	}
	return uint32(int32(s1) % int32(s2))
}
