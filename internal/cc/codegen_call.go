package cc

import (
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
			g.pushComputed(func(dst reg) { g.emitI(fLi, v, dst) })
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
					g.pushComputed(func(dst reg) { g.emit(fMv, dst, sReg(sym)) })
				} else {
					g.pushComputed(func(dst reg) { g.emitFrameLoad(dst, sym.FrameOff) })
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
		tgt := g.pop(a7)
		g.emitI(fPSwre, bufv, tgt, val)
		return false, nil
	case "lbp_recv_result":
		bufv, ok := foldConst(e.Args[0])
		if !ok {
			return false, g.errf(e.Line, "lbp_recv_result buffer index must be constant")
		}
		g.pushComputed(func(dst reg) { g.emitI(fPLwre, bufv, dst) })
		return true, nil
	case "lbp_hart_id":
		g.pushComputed(func(dst reg) {
			g.emit(fPSet, dst, zero)
			g.emitI(fSlli, 1, dst, dst)
			g.emitI(fSrli, 17, dst, dst)
		})
		return true, nil
	case "lbp_team":
		if g.fn.IsThread {
			g.pushComputed(func(dst reg) { g.emitI(fLw, teamOff, dst, sp) })
		} else {
			g.pushComputed(func(dst reg) { g.emit(fPSet, dst, zero) })
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
		g.emitI(fSlli, int64(k), a, a)
		g.pushComputed(func(dst reg) {
			// dst may alias a; build the base in a6 first
			g.emitI(fLui, 0x80000, a6)
			g.emit(fAdd, dst, a6, a)
		})
		return true, nil
	case "lbp_poll":
		if err := g.genExpr(e.Args[0]); err != nil {
			return false, err
		}
		a := g.pop(scratch)
		g.pushComputed(func(dst reg) { g.emitI(fLw, 0, dst, a) })
		return true, nil
	case "lbp_halt":
		g.emit(fEbreak)
		return false, nil
	case "lbp_syncm":
		g.emit(fPSyncm)
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
	g.flushBelow(base) // entries below the arguments must survive the call
	// arguments move straight from their temp registers when possible
	for i := 0; i < n; i++ {
		idx := base + i
		if idx < len(tempRegs) && !g.stack[idx].flushed {
			g.emit(fMv, argRegs[i], tempRegs[idx])
		} else {
			g.emitI(fLw, int64(g.slotOff(idx)), argRegs[i], sp)
		}
	}
	g.stack = g.stack[:base]
	g.emitS(fJal, fn.Name)
	if fn.Ret.Kind == TypeVoid {
		return false, nil
	}
	if needValue {
		g.pushComputed(func(dst reg) { g.emit(fMv, dst, a0) })
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
	g.flushBelow(len(g.stack))
	trip := g.pop(a3)
	if trip != a3 {
		g.emit(fMv, a3, trip)
	}
	g.emitI(fLi, -1, t0)
	g.emit(fPSet, t0, t0)
	g.emitS(fLa, fnArg.Sym.Func.Name, a0)
	g.emitI(fLi, 0, a1)
	g.emitS(fJal, "LBP_parallel_start")
	g.parallel = true
	g.emitI(fLw, 0, ra, sp)
	g.emitI(fLw, 4, t0, sp)
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
	g.list.Data()
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
			g.list.Org(bankCursor)
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
	g.list.Label(d.Name)
	size := d.Type.Size()
	switch {
	case d.Init != nil:
		v, _ := foldConst(d.Init)
		g.list.Word(int64(int32(v)))
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
				g.list.Fill(int64(j-i), int64(int32(vals[i])))
			} else {
				for k := i; k < j; k++ {
					g.list.Word(int64(int32(vals[k])))
				}
			}
			i = j
		}
	default:
		g.list.Space(int64((size + 3) &^ 3))
	}
	return nil
}
