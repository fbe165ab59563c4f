package cc

import (
	"slices"

	"repro/internal/detomp"
)

// Builtin functions of the Deterministic OpenMP dialect.
type builtin struct {
	name  string
	ret   *Type
	nargs int
}

var builtins = []builtin{
	{"omp_set_num_threads", typeVoid, 1},
	{"omp_get_thread_num", typeInt, 0},  // team member index (in a region)
	{"omp_get_num_threads", typeInt, 0}, // team size (in a region)
	{"lbp_send_result", typeVoid, 3},    // (target identity, value, buffer)
	{"lbp_recv_result", typeInt, 1},     // (buffer)
	{"lbp_hart_id", typeInt, 0},
	{"lbp_team", typeInt, 0},
	{"lbp_bank_ptr", ptrTo(typeInt), 1},
	{"lbp_poll", typeInt, 1},        // (addr-expression): volatile word load
	{"lbp_halt", typeVoid, 0},       // stop the machine (ebreak)
	{"lbp_syncm", typeVoid, 0},      // p_syncm: drain this hart's memory accesses
	{"__lbp_parallel", typeVoid, 2}, // synthesized by the OpenMP transform
}

// IsBuiltin reports whether name is a compiler builtin.
func IsBuiltin(name string) bool {
	for _, b := range builtins {
		if b.name == name {
			return true
		}
	}
	return false
}

// checkReserved refuses a function or global named like a label of the
// Deterministic OpenMP runtime that BuildProgram links in: it would
// define the label twice — or, worse, once, in the runtime's place.
func checkReserved(name string, line int) error {
	if slices.Contains(detomp.RuntimeSymbols(), name) {
		return errf(line, 1, "%q is a symbol of the Deterministic OpenMP runtime", name)
	}
	return nil
}

// scope is a lexical scope.
type scope struct {
	parent *scope
	syms   map[string]*Symbol
}

func (s *scope) lookup(name string) *Symbol {
	for sc := s; sc != nil; sc = sc.parent {
		if sym, ok := sc.syms[name]; ok {
			return sym
		}
	}
	return nil
}

// sema performs name resolution and type checking.
type sema struct {
	prog    *Program
	globals *scope
	fn      *FuncDecl
	cur     *scope
	loop    int // loop nesting depth for break/continue
}

// Analyze resolves and type-checks the program in place.
func Analyze(prog *Program) error {
	s := &sema{prog: prog, globals: &scope{syms: map[string]*Symbol{}}}
	for _, b := range builtins {
		s.globals.syms[b.name] = &Symbol{Kind: SymFunc, Name: b.name,
			Type: b.ret, Func: &FuncDecl{Name: b.name, Ret: b.ret}}
	}
	for _, g := range prog.Globals {
		if err := checkReserved(g.Name, g.Line); err != nil {
			return err
		}
		if prev := s.globals.syms[g.Name]; prev != nil {
			return errf(g.Line, 1, "redefinition of %q", g.Name)
		}
		sym := &Symbol{Kind: SymGlobal, Name: g.Name, Type: g.Type, Decl: g,
			AsmName: g.Name, Reg: -1}
		g.Sym = sym
		s.globals.syms[g.Name] = sym
		if g.Init != nil {
			if _, ok := foldConst(g.Init); !ok {
				return errf(g.Line, 1, "global %q initializer is not constant", g.Name)
			}
		}
		if g.List != nil && g.Type.Kind != TypeArray {
			return errf(g.Line, 1, "brace initializer on non-array %q", g.Name)
		}
	}
	for _, f := range prog.Funcs {
		if err := checkReserved(f.Name, f.Line); err != nil {
			return err
		}
		if prev := s.globals.syms[f.Name]; prev != nil {
			if prev.Kind == SymFunc && prev.Func.Body == nil && f.Body != nil {
				prev.Func = f // definition after prototype
			} else if f.Body == nil {
				continue // repeated prototype
			} else {
				return errf(f.Line, 1, "redefinition of %q", f.Name)
			}
		} else {
			s.globals.syms[f.Name] = &Symbol{Kind: SymFunc, Name: f.Name,
				Type: f.Ret, Func: f}
		}
	}
	for _, f := range prog.Funcs {
		if f.Body == nil {
			continue
		}
		if err := s.checkFunc(f); err != nil {
			return err
		}
	}
	return nil
}

func (s *sema) checkFunc(f *FuncDecl) error {
	s.fn = f
	s.cur = &scope{parent: s.globals, syms: map[string]*Symbol{}}
	for i, p := range f.Params {
		if !p.Type.IsScalar() {
			return errf(p.Line, 1, "parameter %q must be int or pointer", p.Name)
		}
		sym := &Symbol{Kind: SymParam, Name: p.Name, Type: p.Type, Decl: p,
			ParamIdx: i, Reg: -1}
		p.Sym = sym
		s.cur.syms[p.Name] = sym
		f.locals = append(f.locals, sym)
	}
	if err := s.stmt(f.Body); err != nil {
		return err
	}
	s.fn = nil
	return nil
}

func (s *sema) stmt(st *Stmt) error {
	switch st.Kind {
	case SEmpty, SPragma:
		return nil
	case SBlock:
		if !st.NoScope {
			s.cur = &scope{parent: s.cur, syms: map[string]*Symbol{}}
			defer func() { s.cur = s.cur.parent }()
		}
		for _, c := range st.List {
			if err := s.stmt(c); err != nil {
				return err
			}
		}
		return nil
	case SDecl:
		return s.declareLocal(st.Decl)
	case SExpr:
		_, err := s.expr(st.Expr)
		return err
	case SIf:
		if _, err := s.expr(st.Expr); err != nil {
			return err
		}
		if err := s.stmt(st.Body); err != nil {
			return err
		}
		if st.Else != nil {
			return s.stmt(st.Else)
		}
		return nil
	case SWhile, SDoWhile:
		if _, err := s.expr(st.Expr); err != nil {
			return err
		}
		s.loop++
		defer func() { s.loop-- }()
		return s.stmt(st.Body)
	case SFor:
		s.cur = &scope{parent: s.cur, syms: map[string]*Symbol{}}
		defer func() { s.cur = s.cur.parent }()
		if st.Init != nil {
			if err := s.stmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if _, err := s.expr(st.Cond); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if _, err := s.expr(st.Post); err != nil {
				return err
			}
		}
		s.loop++
		defer func() { s.loop-- }()
		return s.stmt(st.Body)
	case SReturn:
		if st.Expr != nil {
			if s.fn.Ret.Kind == TypeVoid {
				return errf(st.Line, 1, "return with value in void function %q", s.fn.Name)
			}
			_, err := s.expr(st.Expr)
			return err
		}
		if s.fn.Ret.Kind != TypeVoid {
			return errf(st.Line, 1, "return without value in %q", s.fn.Name)
		}
		return nil
	case SBreak:
		if s.loop == 0 {
			return errf(st.Line, 1, "break outside a loop")
		}
		return nil
	case SContinue:
		if s.loop == 0 {
			return errf(st.Line, 1, "continue outside a loop")
		}
		return nil
	}
	return errf(st.Line, 1, "internal: unknown statement kind %d", st.Kind)
}

func (s *sema) declareLocal(d *VarDecl) error {
	if _, dup := s.cur.syms[d.Name]; dup {
		return errf(d.Line, 1, "redeclaration of %q", d.Name)
	}
	if d.Type.Kind == TypeVoid {
		return errf(d.Line, 1, "variable %q has void type", d.Name)
	}
	if d.Bank >= 0 {
		return errf(d.Line, 1, "__bank placement only applies to globals (%q)", d.Name)
	}
	if d.List != nil {
		return errf(d.Line, 1, "brace initializers are only supported on globals (%q)", d.Name)
	}
	sym := &Symbol{Kind: SymLocal, Name: d.Name, Type: d.Type, Decl: d, Reg: -1}
	d.Sym = sym
	s.cur.syms[d.Name] = sym
	s.fn.locals = append(s.fn.locals, sym)
	if d.Init != nil {
		if _, err := s.expr(d.Init); err != nil {
			return err
		}
	}
	return nil
}

// decay converts array-typed expressions to pointers in value contexts.
func decay(t *Type) *Type {
	if t.Kind == TypeArray {
		return ptrTo(t.Elem)
	}
	return t
}

// isLvalue reports whether e designates a storage location.
func isLvalue(e *Expr) bool {
	switch e.Kind {
	case EVar:
		return true
	case EIndex, EMember:
		return true
	case EUnary:
		return e.Op == "*"
	}
	return false
}

func (s *sema) expr(e *Expr) (*Type, error) {
	t, err := s.exprInner(e)
	if err != nil {
		return nil, err
	}
	e.Type = t
	return t, nil
}

func (s *sema) exprInner(e *Expr) (*Type, error) {
	switch e.Kind {
	case ENum:
		return typeInt, nil
	case EVar:
		sym := s.cur.lookup(e.Name)
		if sym == nil {
			hint := ""
			if s.fn != nil && s.fn.IsThread {
				hint = " (locals of the enclosing function cannot be captured in a parallel region)"
			}
			return nil, errf(e.Line, e.Col, "undefined identifier %q%s", e.Name, hint)
		}
		e.Sym = sym
		if sym.Kind == SymFunc {
			return typeInt, nil // function designator used as a value
		}
		return sym.Type, nil
	case ECast:
		if _, err := s.expr(e.Lhs); err != nil {
			return nil, err
		}
		if e.CastTo == nil {
			return e.Lhs.Type, nil
		}
		if !e.CastTo.IsScalar() && e.CastTo.Kind != TypeVoid {
			return nil, errf(e.Line, e.Col, "cannot cast to %s", e.CastTo)
		}
		return e.CastTo, nil
	case EUnary:
		lt, err := s.expr(e.Lhs)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "-", "~", "!":
			if !decay(lt).IsScalar() {
				return nil, errf(e.Line, e.Col, "unary %s on %s", e.Op, lt)
			}
			return typeInt, nil
		case "*":
			dt := decay(lt)
			if dt.Kind != TypePtr {
				return nil, errf(e.Line, e.Col, "dereference of non-pointer %s", lt)
			}
			if dt.Elem.Kind == TypeVoid {
				return nil, errf(e.Line, e.Col, "dereference of void pointer")
			}
			return dt.Elem, nil
		case "&":
			if !isLvalue(e.Lhs) {
				return nil, errf(e.Line, e.Col, "cannot take the address of this expression")
			}
			markAddrTaken(e.Lhs)
			return ptrTo(lt), nil
		}
	case EBinary:
		lt, err := s.expr(e.Lhs)
		if err != nil {
			return nil, err
		}
		rt, err := s.expr(e.Rhs)
		if err != nil {
			return nil, err
		}
		ldt, rdt := decay(lt), decay(rt)
		if !ldt.IsScalar() || !rdt.IsScalar() {
			return nil, errf(e.Line, e.Col, "binary %s on %s and %s", e.Op, lt, rt)
		}
		switch e.Op {
		case "+":
			if ldt.Kind == TypePtr && rdt.Kind == TypePtr {
				return nil, errf(e.Line, e.Col, "cannot add two pointers")
			}
			if ldt.Kind == TypePtr {
				return ldt, nil
			}
			if rdt.Kind == TypePtr {
				return rdt, nil
			}
			return typeInt, nil
		case "-":
			if ldt.Kind == TypePtr && rdt.Kind == TypePtr {
				return typeInt, nil // element difference
			}
			if ldt.Kind == TypePtr {
				return ldt, nil
			}
			if rdt.Kind == TypePtr {
				return nil, errf(e.Line, e.Col, "int - pointer is invalid")
			}
			return typeInt, nil
		default:
			return typeInt, nil
		}
	case EAssign:
		if !isLvalue(e.Lhs) {
			return nil, errf(e.Line, e.Col, "assignment to non-lvalue")
		}
		lt, err := s.expr(e.Lhs)
		if err != nil {
			return nil, err
		}
		if !lt.IsScalar() {
			return nil, errf(e.Line, e.Col, "assignment to non-scalar %s", lt)
		}
		if _, err := s.expr(e.Rhs); err != nil {
			return nil, err
		}
		return lt, nil
	case ECond:
		if _, err := s.expr(e.Lhs); err != nil {
			return nil, err
		}
		tt, err := s.expr(e.Rhs)
		if err != nil {
			return nil, err
		}
		if _, err := s.expr(e.Third); err != nil {
			return nil, err
		}
		return decay(tt), nil
	case ECall:
		if e.Lhs.Kind != EVar {
			return nil, errf(e.Line, e.Col, "only direct calls are supported")
		}
		sym := s.cur.lookup(e.Lhs.Name)
		if sym == nil || sym.Kind != SymFunc {
			return nil, errf(e.Line, e.Col, "call of undefined function %q", e.Lhs.Name)
		}
		e.Lhs.Sym = sym
		fn := sym.Func
		if !IsBuiltin(fn.Name) && len(e.Args) != len(fn.Params) {
			return nil, errf(e.Line, e.Col, "%q wants %d arguments, got %d",
				fn.Name, len(fn.Params), len(e.Args))
		}
		if IsBuiltin(fn.Name) {
			for _, b := range builtins {
				if b.name == fn.Name && len(e.Args) != b.nargs {
					return nil, errf(e.Line, e.Col, "%q wants %d arguments, got %d",
						fn.Name, b.nargs, len(e.Args))
				}
			}
		}
		if len(e.Args) > 7 {
			return nil, errf(e.Line, e.Col, "more than 7 arguments are not supported")
		}
		for _, a := range e.Args {
			if _, err := s.expr(a); err != nil {
				return nil, err
			}
		}
		return fn.Ret, nil
	case EIndex:
		bt, err := s.expr(e.Lhs)
		if err != nil {
			return nil, err
		}
		dt := decay(bt)
		if dt.Kind != TypePtr {
			return nil, errf(e.Line, e.Col, "indexing non-array %s", bt)
		}
		it, err := s.expr(e.Rhs)
		if err != nil {
			return nil, err
		}
		if decay(it).Kind != TypeInt {
			return nil, errf(e.Line, e.Col, "array index must be int, got %s", it)
		}
		if bt.Kind == TypeArray {
			markAddrTaken(e.Lhs)
		}
		return dt.Elem, nil
	case EMember:
		bt, err := s.expr(e.Lhs)
		if err != nil {
			return nil, err
		}
		st := bt
		if e.Arrow {
			if decay(bt).Kind != TypePtr {
				return nil, errf(e.Line, e.Col, "-> on non-pointer %s", bt)
			}
			st = decay(bt).Elem
		} else {
			markAddrTaken(e.Lhs)
		}
		if st.Kind != TypeStruct {
			return nil, errf(e.Line, e.Col, "member access on non-struct %s", st)
		}
		for _, f := range st.Fields {
			if f.Name == e.Name {
				return f.Type, nil
			}
		}
		return nil, errf(e.Line, e.Col, "struct %s has no member %q", st.Name, e.Name)
	case EIncDec:
		if !isLvalue(e.Lhs) {
			return nil, errf(e.Line, e.Col, "%s on non-lvalue", e.Op)
		}
		lt, err := s.expr(e.Lhs)
		if err != nil {
			return nil, err
		}
		if !lt.IsScalar() {
			return nil, errf(e.Line, e.Col, "%s on %s", e.Op, lt)
		}
		return lt, nil
	}
	return nil, errf(e.Line, e.Col, "internal: unknown expression kind %d", e.Kind)
}

// markAddrTaken forces the base variable of an lvalue into memory.
func markAddrTaken(e *Expr) {
	switch e.Kind {
	case EVar:
		if e.Sym != nil {
			e.Sym.AddrTaken = true
		}
	case EMember:
		if !e.Arrow {
			markAddrTaken(e.Lhs)
		}
	case EIndex:
		if e.Lhs.Type != nil && e.Lhs.Type.Kind == TypeArray {
			markAddrTaken(e.Lhs)
		}
	}
}
