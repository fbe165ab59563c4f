package lbp

import "repro/internal/isa"

// Threaded-code dispatch. Issue executes an instruction with one indexed
// call through execTab instead of re-classifying the opcode with
// switches: every opcode has its own execFn, and per-instruction
// metadata (operand flags, pipeline class, memory width) comes
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

	// Each register-result and branch operation is its own function with
	// its expression inline: one indexed call reaches it, and finishALU
	// (which charges the latency of the descriptor's class) or
	// finishBranch inlines into it.
	t[isa.OpLUI] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, uint32(u.d.Inst.Imm)) }
	t[isa.OpAUIPC] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.PC+uint32(u.d.Inst.Imm)) }
	t[isa.OpADDI] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.Src1+uint32(u.d.Inst.Imm)) }
	t[isa.OpSLTI] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, b2u(int32(u.Src1) < u.d.Inst.Imm)) }
	t[isa.OpSLTIU] = func(c *core, h *hart, u *uop, now uint64) {
		finishALU(c, h, u, now, b2u(u.Src1 < uint32(u.d.Inst.Imm)))
	}
	t[isa.OpXORI] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.Src1^uint32(u.d.Inst.Imm)) }
	t[isa.OpORI] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.Src1|uint32(u.d.Inst.Imm)) }
	t[isa.OpANDI] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.Src1&uint32(u.d.Inst.Imm)) }
	t[isa.OpSLLI] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.Src1<<(uint32(u.d.Inst.Imm)&31)) }
	t[isa.OpSRLI] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.Src1>>(uint32(u.d.Inst.Imm)&31)) }
	t[isa.OpSRAI] = func(c *core, h *hart, u *uop, now uint64) {
		finishALU(c, h, u, now, uint32(int32(u.Src1)>>(uint32(u.d.Inst.Imm)&31)))
	}
	t[isa.OpADD] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.Src1+u.Src2) }
	t[isa.OpSUB] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.Src1-u.Src2) }
	t[isa.OpSLL] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.Src1<<(u.Src2&31)) }
	t[isa.OpSLT] = func(c *core, h *hart, u *uop, now uint64) {
		finishALU(c, h, u, now, b2u(int32(u.Src1) < int32(u.Src2)))
	}
	t[isa.OpSLTU] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, b2u(u.Src1 < u.Src2)) }
	t[isa.OpXOR] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.Src1^u.Src2) }
	t[isa.OpSRL] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.Src1>>(u.Src2&31)) }
	t[isa.OpSRA] = func(c *core, h *hart, u *uop, now uint64) {
		finishALU(c, h, u, now, uint32(int32(u.Src1)>>(u.Src2&31)))
	}
	t[isa.OpOR] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.Src1|u.Src2) }
	t[isa.OpAND] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.Src1&u.Src2) }
	t[isa.OpMUL] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, u.Src1*u.Src2) }
	t[isa.OpMULH] = func(c *core, h *hart, u *uop, now uint64) {
		finishALU(c, h, u, now, uint32(uint64(int64(int32(u.Src1))*int64(int32(u.Src2)))>>32))
	}
	t[isa.OpMULHSU] = func(c *core, h *hart, u *uop, now uint64) {
		finishALU(c, h, u, now, uint32(uint64(int64(int32(u.Src1))*int64(u.Src2))>>32))
	}
	t[isa.OpMULHU] = func(c *core, h *hart, u *uop, now uint64) {
		finishALU(c, h, u, now, uint32(uint64(u.Src1)*uint64(u.Src2)>>32))
	}
	t[isa.OpDIV] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, divRV(u.Src1, u.Src2)) }
	t[isa.OpDIVU] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, divuRV(u.Src1, u.Src2)) }
	t[isa.OpREM] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, remRV(u.Src1, u.Src2)) }
	t[isa.OpREMU] = func(c *core, h *hart, u *uop, now uint64) { finishALU(c, h, u, now, remuRV(u.Src1, u.Src2)) }

	t[isa.OpBEQ] = func(c *core, h *hart, u *uop, now uint64) { finishBranch(h, u, now, u.Src1 == u.Src2) }
	t[isa.OpBNE] = func(c *core, h *hart, u *uop, now uint64) { finishBranch(h, u, now, u.Src1 != u.Src2) }
	t[isa.OpBLT] = func(c *core, h *hart, u *uop, now uint64) { finishBranch(h, u, now, int32(u.Src1) < int32(u.Src2)) }
	t[isa.OpBGE] = func(c *core, h *hart, u *uop, now uint64) { finishBranch(h, u, now, int32(u.Src1) >= int32(u.Src2)) }
	t[isa.OpBLTU] = func(c *core, h *hart, u *uop, now uint64) { finishBranch(h, u, now, u.Src1 < u.Src2) }
	t[isa.OpBGEU] = func(c *core, h *hart, u *uop, now uint64) { finishBranch(h, u, now, u.Src1 >= u.Src2) }

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
	u.Value = v
	c.startExec(h, u, now+c.m.latTab[u.d.Cls])
}

// finishBranch resolves a conditional branch: the next pc leaves the
// execute stage, and the branch itself retires with no register result.
func finishBranch(h *hart, u *uop, now uint64, taken bool) {
	target := u.PC + 4
	if taken {
		target = u.PC + uint32(u.d.Inst.Imm)
	}
	h.PC = target
	h.PCValid = true
	h.PCReady = now + 1
	u.Done = true
}

func execSystem(c *core, h *hart, u *uop, now uint64) {
	// fence is a no-op (no caches), ecall/ebreak terminate at commit,
	// p_syncm acted at rename.
	u.Done = true
}

func execUnknown(c *core, h *hart, u *uop, now uint64) {
	c.faultf(h.idx, "unhandled op %v (pc %#x)", u.d.Inst.Op, u.PC)
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

func divuRV(s1, s2 uint32) uint32 {
	if s2 == 0 {
		return 0xFFFFFFFF
	}
	return s1 / s2
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

func remuRV(s1, s2 uint32) uint32 {
	if s2 == 0 {
		return s1
	}
	return s1 % s2
}
