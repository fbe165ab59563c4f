package cc

// pushComputed allocates a stack entry and lets f compute the value into
// the chosen register (the entry's temp register, or the scratch for
// frame-resident entries).
func (g *codegen) pushComputed(f func(dst reg)) {
	r := g.push()
	f(r)
	g.storeTop(r)
}

// dupTop duplicates the top stack entry.
func (g *codegen) dupTop() {
	i := len(g.stack) - 1
	inReg := i < len(tempRegs) && !g.stack[i].flushed
	off := g.slotOff(i)
	g.pushComputed(func(dst reg) {
		if inReg {
			g.emit(fMv, dst, tempRegs[i])
		} else {
			g.emitI(fLw, int64(off), dst, sp)
		}
	})
}

// genExpr evaluates e and pushes its value (or decayed address).
func (g *codegen) genExpr(e *Expr) error {
	if v, ok := foldConst(e); ok {
		g.pushComputed(func(dst reg) { g.emitI(fLi, int64(int32(v)), dst) })
		return nil
	}
	switch e.Kind {
	case ENum:
		g.pushComputed(func(dst reg) { g.emitI(fLi, int64(int32(e.Num)), dst) })
		return nil
	case ECast:
		return g.genExpr(e.Lhs)
	case EVar:
		return g.genVarValue(e)
	case EUnary:
		return g.genUnary(e)
	case EBinary:
		return g.genBinary(e)
	case EAssign:
		return g.genAssign(e, true)
	case EIncDec:
		return g.genIncDec(e, true)
	case ECond:
		return g.genCondValue(e)
	case ECall:
		pushed, err := g.genCall(e, true)
		if err != nil {
			return err
		}
		if !pushed {
			return g.errf(e.Line, "void value used in an expression")
		}
		return nil
	case EIndex, EMember:
		if !e.Type.IsScalar() {
			// address of an aggregate element
			return g.genAddr(e)
		}
		if err := g.genAddr(e); err != nil {
			return err
		}
		a := g.pop(scratch)
		g.pushComputed(func(dst reg) { g.emitI(fLw, 0, dst, a) })
		return nil
	}
	return g.errf(e.Line, "internal: expression kind %d", e.Kind)
}

// genVarValue pushes the value of a variable (or the address for arrays,
// structs and functions).
func (g *codegen) genVarValue(e *Expr) error {
	sym := e.Sym
	switch {
	case sym.Kind == SymFunc:
		g.pushComputed(func(dst reg) { g.emitS(fLa, sym.Name, dst) })
	case sym.Reg >= 0:
		g.pushComputed(func(dst reg) { g.emit(fMv, dst, sReg(sym)) })
	case sym.Kind == SymGlobal:
		if sym.Type.IsScalar() {
			g.pushComputed(func(dst reg) {
				g.emitS(fLa, sym.AsmName, dst)
				g.emitI(fLw, 0, dst, dst)
			})
		} else {
			g.pushComputed(func(dst reg) { g.emitS(fLa, sym.AsmName, dst) })
		}
	default: // frame-resident local or param
		if sym.Type.IsScalar() {
			g.pushComputed(func(dst reg) { g.emitFrameLoad(dst, sym.FrameOff) })
		} else {
			g.pushComputed(func(dst reg) { g.emitFrameAddr(dst, sym.FrameOff) })
		}
	}
	return nil
}

// genAddr pushes the address of an lvalue.
func (g *codegen) genAddr(e *Expr) error {
	switch e.Kind {
	case EVar:
		sym := e.Sym
		switch {
		case sym.Kind == SymGlobal:
			g.pushComputed(func(dst reg) { g.emitS(fLa, sym.AsmName, dst) })
		case sym.Reg >= 0:
			return g.errf(e.Line, "internal: address of register variable %q", sym.Name)
		default:
			g.pushComputed(func(dst reg) { g.emitFrameAddr(dst, sym.FrameOff) })
		}
		return nil
	case EUnary:
		if e.Op != "*" {
			return g.errf(e.Line, "internal: genAddr of unary %s", e.Op)
		}
		return g.genExpr(e.Lhs)
	case EIndex:
		// base address or pointer value
		if e.Lhs.Type.Kind == TypeArray {
			if err := g.genAddr(e.Lhs); err != nil {
				return err
			}
		} else {
			if err := g.genExpr(e.Lhs); err != nil {
				return err
			}
		}
		if err := g.genExpr(e.Rhs); err != nil {
			return err
		}
		b := g.pop(scratch)
		g.scaleInPlace(b, decay(e.Lhs.Type).Elem.Size())
		a := g.pop(a7)
		g.pushComputed(func(dst reg) { g.emit(fAdd, dst, a, b) })
		return nil
	case EMember:
		var off int
		st := e.Lhs.Type
		if e.Arrow {
			st = decay(st).Elem
		}
		for _, f := range st.Fields {
			if f.Name == e.Name {
				off = f.Offset
			}
		}
		var err error
		if e.Arrow {
			err = g.genExpr(e.Lhs)
		} else {
			err = g.genAddr(e.Lhs)
		}
		if err != nil {
			return err
		}
		a := g.pop(scratch)
		g.pushComputed(func(dst reg) { g.emitI(fAddi, int64(off), dst, a) })
		return nil
	}
	return g.errf(e.Line, "internal: genAddr of kind %d", e.Kind)
}

// scaleInPlace multiplies register r by size (for pointer arithmetic).
func (g *codegen) scaleInPlace(r reg, size int) {
	if size == 1 {
		return
	}
	if k := log2(size); k > 0 {
		g.emitI(fSlli, int64(k), r, r)
		return
	}
	g.emitI(fLi, int64(size), a6)
	g.emit(fMul, r, r, a6)
}

func log2(v int) int {
	for k := 1; k < 31; k++ {
		if 1<<k == v {
			return k
		}
	}
	return 0
}

func (g *codegen) genUnary(e *Expr) error {
	switch e.Op {
	case "&":
		return g.genAddr(e.Lhs)
	case "*":
		if !e.Type.IsScalar() {
			return g.genExpr(e.Lhs) // aggregate: address
		}
		if err := g.genExpr(e.Lhs); err != nil {
			return err
		}
		a := g.pop(scratch)
		g.pushComputed(func(dst reg) { g.emitI(fLw, 0, dst, a) })
		return nil
	}
	if err := g.genExpr(e.Lhs); err != nil {
		return err
	}
	a := g.pop(scratch)
	g.pushComputed(func(dst reg) {
		switch e.Op {
		case "-":
			g.emit(fNeg, dst, a)
		case "~":
			g.emit(fNot, dst, a)
		case "!":
			g.emit(fSeqz, dst, a)
		}
	})
	return nil
}

func (g *codegen) genBinary(e *Expr) error {
	switch e.Op {
	case "&&", "||":
		return g.genBoolValue(e)
	}
	// constant right operand fast paths
	if rv, ok := foldConst(e.Rhs); ok && e.Lhs.Type != nil &&
		decay(e.Lhs.Type).IsScalar() {
		isPtr := decay(e.Lhs.Type).Kind == TypePtr
		switch e.Op {
		case "+", "-":
			v := rv
			if isPtr {
				v *= int64(decay(e.Lhs.Type).Elem.Size())
			}
			if e.Op == "-" {
				v = -v
			}
			if v >= -2048 && v <= 2047 {
				if err := g.genExpr(e.Lhs); err != nil {
					return err
				}
				a := g.pop(scratch)
				g.pushComputed(func(dst reg) { g.emitI(fAddi, v, dst, a) })
				return nil
			}
		case "*":
			if k := log2(int(rv)); k > 0 && !isPtr {
				if err := g.genExpr(e.Lhs); err != nil {
					return err
				}
				a := g.pop(scratch)
				g.pushComputed(func(dst reg) { g.emitI(fSlli, int64(k), dst, a) })
				return nil
			}
		case "<<", ">>":
			if rv >= 0 && rv < 32 && !isPtr {
				if err := g.genExpr(e.Lhs); err != nil {
					return err
				}
				a := g.pop(scratch)
				op := fSlli
				if e.Op == ">>" {
					op = fSrai
				}
				g.pushComputed(func(dst reg) { g.emitI(op, rv, dst, a) })
				return nil
			}
		case "&", "|", "^":
			if rv >= -2048 && rv <= 2047 && !isPtr {
				if err := g.genExpr(e.Lhs); err != nil {
					return err
				}
				a := g.pop(scratch)
				g.pushComputed(func(dst reg) { g.emitI(immediateOf[e.Op], rv, dst, a) })
				return nil
			}
		}
	}
	if err := g.genExpr(e.Lhs); err != nil {
		return err
	}
	if err := g.genExpr(e.Rhs); err != nil {
		return err
	}
	return g.genBinaryTop(e.Op, e.Lhs.Type, e.Rhs.Type, e.Line)
}

// genBinaryTop applies op to the two top stack entries (lhs below rhs).
func (g *codegen) genBinaryTop(op string, lt, rt *Type, line int) error {
	// pointer arithmetic scaling
	ldt, rdt := decay(lt), decay(rt)
	b := g.pop(scratch)
	if op == "+" || op == "-" {
		if ldt.Kind == TypePtr && rdt.Kind == TypeInt {
			g.scaleInPlace(b, ldt.Elem.Size())
		}
	}
	a := g.pop(a7)
	if op == "+" && rdt.Kind == TypePtr && ldt.Kind == TypeInt {
		g.scaleInPlace(a, rdt.Elem.Size())
	}
	g.pushComputed(func(dst reg) {
		switch op {
		default:
			g.emit(binaryOf[op], dst, a, b)
		case "-":
			g.emit(fSub, dst, a, b)
			if ldt.Kind == TypePtr && rdt.Kind == TypePtr {
				sz := ldt.Elem.Size()
				if k := log2(sz); k > 0 {
					g.emitI(fSrai, int64(k), dst, dst)
				} else if sz > 1 {
					g.emitI(fLi, int64(sz), a6)
					g.emit(fDiv, dst, dst, a6)
				}
			}
		case ">":
			g.emit(fSlt, dst, b, a)
		case "<=":
			g.emit(fSlt, dst, b, a)
			g.emitI(fXori, 1, dst, dst)
		case ">=":
			g.emit(fSlt, dst, a, b)
			g.emitI(fXori, 1, dst, dst)
		case "==":
			g.emit(fSub, dst, a, b)
			g.emit(fSeqz, dst, dst)
		case "!=":
			g.emit(fSub, dst, a, b)
			g.emit(fSnez, dst, dst)
		}
	})
	return nil
}

// genBoolValue materializes a short-circuit expression as 0/1.
func (g *codegen) genBoolValue(e *Expr) error {
	r := g.push()
	falseL := g.newLabel("bfalse")
	endL := g.newLabel("bend")
	// temporarily hide our entry so nested condition codegen balances
	if err := g.genCondBranch(e, falseL, false); err != nil {
		return err
	}
	g.emitI(fLi, 1, r)
	g.storeTop(r)
	g.emitS(fJ, endL)
	g.list.Label(falseL)
	g.emitI(fLi, 0, r)
	g.storeTop(r)
	g.list.Label(endL)
	return nil
}

// genCondValue evaluates c ? a : b.
func (g *codegen) genCondValue(e *Expr) error {
	r := g.push()
	elseL := g.newLabel("celse")
	endL := g.newLabel("cend")
	if err := g.genCondBranch(e.Lhs, elseL, false); err != nil {
		return err
	}
	if err := g.genExpr(e.Rhs); err != nil {
		return err
	}
	v := g.pop(scratch2(r))
	g.emit(fMv, r, v)
	g.storeTop(r)
	g.emitS(fJ, endL)
	g.list.Label(elseL)
	if err := g.genExpr(e.Third); err != nil {
		return err
	}
	v = g.pop(scratch2(r))
	g.emit(fMv, r, v)
	g.storeTop(r)
	g.list.Label(endL)
	return nil
}

// genAssign generates an assignment; pushes the assigned value when
// needValue is set.
func (g *codegen) genAssign(e *Expr, needValue bool) error {
	lhs := e.Lhs
	simpleVar := lhs.Kind == EVar && lhs.Sym.Kind != SymGlobal && lhs.Sym.Reg >= 0
	if e.Op == "=" {
		if simpleVar {
			if err := g.genExpr(e.Rhs); err != nil {
				return err
			}
			r := g.pop(scratch)
			g.emit(fMv, sReg(lhs.Sym), r)
			if needValue {
				g.pushComputed(func(dst reg) { g.emit(fMv, dst, sReg(lhs.Sym)) })
			}
			return nil
		}
		if lhs.Kind == EVar && lhs.Sym.Reg < 0 && lhs.Sym.Kind != SymGlobal {
			if err := g.genExpr(e.Rhs); err != nil {
				return err
			}
			r := g.pop(scratch)
			g.emitFrameStore(r, lhs.Sym.FrameOff)
			if needValue {
				g.pushComputed(func(dst reg) { g.emit(fMv, dst, r) })
			}
			return nil
		}
		if err := g.genAddr(lhs); err != nil {
			return err
		}
		if err := g.genExpr(e.Rhs); err != nil {
			return err
		}
		b := g.pop(scratch)
		a := g.pop(a7)
		g.emitI(fSw, 0, b, a)
		if needValue {
			g.pushComputed(func(dst reg) { g.emit(fMv, dst, b) })
		}
		return nil
	}
	// compound assignment: lhs op= rhs
	op := e.Op[:len(e.Op)-1]
	if simpleVar {
		if err := g.genExpr(lhs); err != nil {
			return err
		}
		if err := g.genExpr(e.Rhs); err != nil {
			return err
		}
		if err := g.genBinaryTop(op, lhs.Type, e.Rhs.Type, e.Line); err != nil {
			return err
		}
		r := g.pop(scratch)
		g.emit(fMv, sReg(lhs.Sym), r)
		if needValue {
			g.pushComputed(func(dst reg) { g.emit(fMv, dst, sReg(lhs.Sym)) })
		}
		return nil
	}
	if err := g.genAddr(lhs); err != nil {
		return err
	}
	g.dupTop()
	a := g.pop(scratch)
	g.pushComputed(func(dst reg) { g.emitI(fLw, 0, dst, a) })
	if err := g.genExpr(e.Rhs); err != nil {
		return err
	}
	if err := g.genBinaryTop(op, lhs.Type, e.Rhs.Type, e.Line); err != nil {
		return err
	}
	b := g.pop(scratch)
	addr := g.pop(a7)
	g.emitI(fSw, 0, b, addr)
	if needValue {
		g.pushComputed(func(dst reg) { g.emit(fMv, dst, b) })
	}
	return nil
}

// genIncDec generates ++/--.
func (g *codegen) genIncDec(e *Expr, needValue bool) error {
	delta := 1
	if decay(e.Lhs.Type).Kind == TypePtr {
		delta = decay(e.Lhs.Type).Elem.Size()
	}
	if e.Op == "--" {
		delta = -delta
	}
	lhs := e.Lhs
	if lhs.Kind == EVar && lhs.Sym.Reg >= 0 {
		r := sReg(lhs.Sym)
		if needValue && !e.Prefix {
			g.pushComputed(func(dst reg) { g.emit(fMv, dst, r) })
		}
		g.emitI(fAddi, int64(delta), r, r)
		if needValue && e.Prefix {
			g.pushComputed(func(dst reg) { g.emit(fMv, dst, r) })
		}
		return nil
	}
	if err := g.genAddr(lhs); err != nil {
		return err
	}
	g.dupTop()
	a := g.pop(scratch)
	g.pushComputed(func(dst reg) {
		g.emitI(fLw, 0, dst, a)
		g.emitI(fAddi, int64(delta), dst, dst)
	})
	b := g.pop(scratch)
	addr := g.pop(a7)
	g.emitI(fSw, 0, b, addr)
	if needValue {
		d := delta
		pre := e.Prefix
		g.pushComputed(func(dst reg) {
			if pre {
				g.emit(fMv, dst, b)
			} else {
				g.emitI(fAddi, int64(-d), dst, b)
			}
		})
	}
	return nil
}

// genExprForEffect evaluates an expression statement, avoiding a dead
// result push where possible. Reports whether a value was pushed.
func (g *codegen) genExprForEffect(e *Expr) (bool, error) {
	switch e.Kind {
	case EAssign:
		return false, g.genAssign(e, false)
	case EIncDec:
		return false, g.genIncDec(e, false)
	case ECall:
		return g.genCall(e, false)
	case ECast:
		return g.genExprForEffect(e.Lhs)
	}
	if err := g.genExpr(e); err != nil {
		return false, err
	}
	return true, nil
}
