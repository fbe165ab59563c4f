package cc

import (
	"fmt"
	"sort"

	"repro/internal/asm"
)

// genCall generates a function call or builtin. Reports whether a result
// value was pushed.
func (g *codegen) genCall(e *Expr, needValue bool) (bool, error) {
	name := e.Lhs.Name
	switch name {
	case "__lbp_parallel":
		return false, g.genParallelLaunch(e)
	case "omp_set_num_threads":
		// Team sizes are the loop trip counts in Deterministic OpenMP;
		// the call is accepted for source compatibility and discarded.
		used, err := g.genExprForEffect(e.Args[0])
		if err != nil {
			return false, err
		}
		if used {
			g.pop(scratch)
		}
		return false, nil
	case "omp_get_thread_num", "omp_get_num_threads":
		// inside an outlined parallel region these are the index/nt
		// parameters of the detomp thread ABI; outside, member 0 of 1
		if !g.fn.IsThread {
			v := int64(0)
			if name == "omp_get_num_threads" {
				v = 1
			}
			g.pushComputed(func(dst string) { g.emit("li %s, %d", dst, v) })
			return true, nil
		}
		paramName := "__lbp_nt"
		if name == "omp_get_thread_num" {
			// the index parameter carries the loop variable's name
			paramName = g.fn.Params[1].Name
		}
		for _, sym := range g.fn.locals {
			if sym.Kind == SymParam && sym.Name == paramName {
				sym := sym
				if sym.Reg >= 0 {
					g.pushComputed(func(dst string) { g.emit("mv %s, %s", dst, sReg(sym)) })
				} else {
					g.pushComputed(func(dst string) { g.emitFrameLoad(dst, sym.FrameOff) })
				}
				return true, nil
			}
		}
		return false, g.errf(e.Line, "internal: %s outside a region", name)
	case "lbp_send_result":
		bufv, ok := foldConst(e.Args[2])
		if !ok {
			return false, g.errf(e.Line, "lbp_send_result buffer index must be constant")
		}
		if err := g.genExpr(e.Args[0]); err != nil {
			return false, err
		}
		if err := g.genExpr(e.Args[1]); err != nil {
			return false, err
		}
		val := g.pop(scratch)
		tgt := g.pop("a7")
		g.emit("p_swre %s, %s, %d", tgt, val, bufv)
		return false, nil
	case "lbp_recv_result":
		bufv, ok := foldConst(e.Args[0])
		if !ok {
			return false, g.errf(e.Line, "lbp_recv_result buffer index must be constant")
		}
		g.pushComputed(func(dst string) { g.emit("p_lwre %s, %d", dst, bufv) })
		return true, nil
	case "lbp_hart_id":
		g.pushComputed(func(dst string) {
			g.emit("p_set %s, zero", dst)
			g.emit("slli %s, %s, 1", dst, dst)
			g.emit("srli %s, %s, 17", dst, dst)
		})
		return true, nil
	case "lbp_team":
		if g.fn.IsThread {
			off := g.teamOff
			g.pushComputed(func(dst string) { g.emit("lw %s, %d(sp)", dst, off) })
		} else {
			g.pushComputed(func(dst string) { g.emit("p_set %s, zero", dst) })
		}
		return true, nil
	case "lbp_bank_ptr":
		k := log2(int(g.opt.SharedBankBytes))
		if k == 0 {
			return false, g.errf(e.Line, "SharedBankBytes must be a power of two")
		}
		if err := g.genExpr(e.Args[0]); err != nil {
			return false, err
		}
		a := g.pop(scratch)
		g.emit("slli %s, %s, %d", a, a, k)
		g.pushComputed(func(dst string) {
			// dst may alias a; build the base in a6 first
			g.emit("lui a6, 0x80000")
			g.emit("add %s, a6, %s", dst, a)
		})
		return true, nil
	case "lbp_poll":
		if err := g.genExpr(e.Args[0]); err != nil {
			return false, err
		}
		a := g.pop(scratch)
		g.pushComputed(func(dst string) { g.emit("lw %s, 0(%s)", dst, a) })
		return true, nil
	case "lbp_halt":
		g.emit("ebreak")
		return false, nil
	case "lbp_syncm":
		g.emit("p_syncm")
		return false, nil
	}

	// regular call
	fn := e.Lhs.Sym.Func
	for _, arg := range e.Args {
		if err := g.genExpr(arg); err != nil {
			return false, err
		}
	}
	n := len(e.Args)
	base := len(g.stack) - n
	// entries below the arguments must survive the call: flush them
	for i := 0; i < base; i++ {
		if i < len(tempRegs) && !g.stack[i].flushed {
			g.emit("sw %s, %d(sp)", tempRegs[i], g.slotOff(i))
			g.stack[i].flushed = true
		}
	}
	// arguments move straight from their temp registers when possible
	for i := 0; i < n; i++ {
		idx := base + i
		if idx < len(tempRegs) && !g.stack[idx].flushed {
			g.emit("mv %s, %s", argRegs[i], tempRegs[idx])
		} else {
			g.emit("lw %s, %d(sp)", argRegs[i], g.slotOff(idx))
		}
	}
	g.stack = g.stack[:base]
	g.emit("jal %s", fn.Name)
	if fn.Ret.Kind == TypeVoid {
		return false, nil
	}
	if needValue {
		g.pushComputed(func(dst string) { g.emit("mv %s, %s", dst, "a0") })
		return true, nil
	}
	return false, nil
}

// genParallelLaunch lowers __lbp_parallel(f, trip): the Deterministic
// OpenMP team launch of Figure 2. The caller's frame already holds ra
// and t0 (layoutFunc guarantees savesRA/savesT0), which are restored
// after the join because the launch consumes both registers.
func (g *codegen) genParallelLaunch(e *Expr) error {
	fnArg := e.Args[0]
	if fnArg.Kind != EVar || fnArg.Sym == nil || fnArg.Sym.Kind != SymFunc {
		return g.errf(e.Line, "__lbp_parallel needs a direct function reference")
	}
	if err := g.genExpr(e.Args[1]); err != nil {
		return err
	}
	g.flushForCall()
	trip := g.pop("a3")
	if trip != "a3" {
		g.emit("mv a3, %s", trip)
	}
	g.emit("li t0, -1")
	g.emit("p_set t0, t0")
	g.emit("la a0, %s", fnArg.Sym.Func.Name)
	g.emit("li a1, 0")
	g.emit("jal LBP_parallel_start")
	g.emit("lw ra, 0(sp)")
	g.emit("lw t0, 4(sp)")
	return nil
}

// ---- data section ---------------------------------------------------------

// genData emits the globals. Default-placement globals are laid out
// sequentially from the shared base; __bank(n) globals are placed at the
// start of bank n (after any default data that reaches into that bank).
func (g *codegen) genData() error {
	if len(g.prog.Globals) == 0 {
		return nil
	}
	g.out.WriteString("\t.data\n")
	bankSize := g.bankBytes()
	cursor := uint32(sharedBase)
	var banked []*VarDecl
	for _, d := range g.prog.Globals {
		if d.Bank >= 0 {
			banked = append(banked, d)
			continue
		}
		if err := g.emitGlobal(d); err != nil {
			return err
		}
		cursor += uint32((d.Type.Size() + 3) &^ 3)
	}
	// group banked globals by bank, preserving declaration order
	sort.SliceStable(banked, func(i, j int) bool { return banked[i].Bank < banked[j].Bank })
	curBank := -1
	var bankCursor uint32
	for _, d := range banked {
		if g.opt.Cores > 0 && d.Bank >= g.opt.Cores {
			return errf(d.Line, 1, "__bank(%d) exceeds the %d-core machine", d.Bank, g.opt.Cores)
		}
		if d.Bank != curBank {
			curBank = d.Bank
			start := uint32(sharedBase) + uint32(curBank)*bankSize + g.opt.BankReserveBytes
			if cursor > start {
				return errf(d.Line, 1,
					"default globals (%d bytes) overflow the %d-byte bank reserve before __bank(%d)",
					cursor-sharedBase, g.opt.BankReserveBytes, curBank)
			}
			bankCursor = start
			g.out.WriteString(fmt.Sprintf("\t.org 0x%x\n", bankCursor))
		}
		if err := g.emitGlobal(d); err != nil {
			return err
		}
		bankCursor += uint32((d.Type.Size() + 3) &^ 3)
		limit := uint32(sharedBase) + uint32(curBank+1)*bankSize
		if bankCursor > limit {
			return errf(d.Line, 1, "__bank(%d) globals overflow the %d-byte bank", curBank, bankSize)
		}
	}
	return nil
}

// bankBytes is the shared bank size the options describe.
func (g *codegen) bankBytes() uint32 {
	if g.opt.SharedBankBytes == 0 {
		return 1 << 16
	}
	return g.opt.SharedBankBytes
}

func (g *codegen) emitGlobal(d *VarDecl) error {
	g.out.WriteString(d.Name + ":\n")
	size := d.Type.Size()
	switch {
	case d.Init != nil:
		v, _ := foldConst(d.Init)
		g.out.WriteString(fmt.Sprintf("\t.word %d\n", int32(v)))
	case d.List != nil:
		// expand entries into a dense image — of a global that can exist:
		// the declared length sizes the allocation, so one larger than
		// any program the assembler takes, or than the shared space of
		// the machine the options describe, is refused first
		n := d.Type.Len
		limit := 4 * asm.MaxWords
		if space := g.opt.Cores * int(g.bankBytes()); 0 < space && space < limit {
			limit = space
		}
		if size > limit {
			return errf(d.Line, 1, "initialized global %q (%d bytes) is larger than the %d-byte shared space",
				d.Name, size, limit)
		}
		vals := make([]int64, n)
		for _, ent := range d.List {
			if ent.Lo < 0 || ent.Hi >= n || ent.Lo > ent.Hi {
				return errf(d.Line, 1, "initializer range [%d...%d] outside %q[%d]",
					ent.Lo, ent.Hi, d.Name, n)
			}
			for i := ent.Lo; i <= ent.Hi; i++ {
				vals[i] = ent.Value
			}
		}
		// emit runs compactly with .fill
		for i := 0; i < n; {
			j := i
			for j < n && vals[j] == vals[i] {
				j++
			}
			if j-i >= 4 {
				g.out.WriteString(fmt.Sprintf("\t.fill %d, %d\n", j-i, int32(vals[i])))
			} else {
				for k := i; k < j; k++ {
					g.out.WriteString(fmt.Sprintf("\t.word %d\n", int32(vals[k])))
				}
			}
			i = j
		}
	default:
		g.out.WriteString(fmt.Sprintf("\t.space %d\n", (size+3)&^3))
	}
	return nil
}
