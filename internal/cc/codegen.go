package cc

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/asm"
	"repro/internal/detomp"
)

// Options configure compilation.
type Options struct {
	// SharedBankBytes is the size of one shared memory bank (must match
	// the machine configuration; used by __bank placement and
	// lbp_bank_ptr). Must be a power of two.
	SharedBankBytes uint32
	// Cores bounds __bank placement (0 = unchecked).
	Cores int
	// BankReserveBytes is where __bank(n) globals start within bank n
	// (the low part of each bank is reserved for default-placement
	// globals of bank 0 and for program-managed layouts).
	BankReserveBytes uint32
}

// DefaultOptions matches lbp.DefaultConfig / mem.DefaultConfig.
func DefaultOptions() Options {
	return Options{SharedBankBytes: 1 << 16, BankReserveBytes: 4096}
}

// CheckBank is the one answer to "is this shared bank size legal" for
// the front ends that take one from a user (lbp-run -bank, lbp-cc -bank
// -reserve, POST /jobs "bankBytes"): a power of two that fits 32 bits —
// lbp_bank_ptr shifts by its log — and larger than the reserve, or no
// __bank(n) global has anywhere to go.
func CheckBank(bank, reserve uint64) error {
	if bank == 0 || bank > math.MaxUint32 || bank&(bank-1) != 0 {
		return fmt.Errorf("bank size %d must be a power of two that fits in 32 bits", bank)
	}
	if reserve >= bank {
		return fmt.Errorf("bank size %d must be larger than the %d-byte bank reserve", bank, reserve)
	}
	return nil
}

const sharedBase = 0x80000000

// compile translates MiniC source to a statement list of RV32 X_PAR
// assembly; the Deterministic OpenMP runtime's statements follow the
// functions of a program that launches teams.
func compile(src string, opt Options) (*asm.List, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := ompPass(prog); err != nil {
		return nil, err
	}
	if err := Analyze(prog); err != nil {
		return nil, err
	}
	g := &codegen{prog: prog, opt: opt}
	g.list.Stmts = *stmtPool.Get().(*[]asm.Stmt)
	if err := g.run(); err != nil {
		release(&g.list)
		return nil, err
	}
	return &g.list, nil
}

// maxPooled bounds the token and statement buffers the pools keep: an
// ordinary program fits, a huge one's buffer goes to the collector.
const maxPooled = 1 << 12

// stmtPool holds statement lists between compiles: a list is garbage
// once it is assembled or rendered, and Build and BuildProgram give it
// back (release) so that the next compile appends into it.
var stmtPool = sync.Pool{New: func() any { return new([]asm.Stmt) }}

// release returns l's statements to stmtPool, cleared to their capacity
// (the peephole shortens the list in place, leaving statements past its
// end), unless they grew past maxPooled.
func release(l *asm.List) {
	st := l.Stmts
	l.Stmts = nil
	if cap(st) > maxPooled {
		return
	}
	clear(st[:cap(st)])
	st = st[:0]
	stmtPool.Put(&st)
}

// Registers, by number (isa.RegNames).
type reg = uint8

const (
	zero, ra, sp, t0, t1, t2 reg = 0, 1, 2, 5, 6, 7
	a0, a1, a2, a3, a4, a5   reg = 10, 11, 12, 13, 14, 15
	a6, a7                   reg = 16, 17
	t3, t4, t5, t6           reg = 28, 29, 30, 31
)

// Register conventions of the generated code.
var (
	tempRegs = []reg{t1, t2, t3, t4, t5}                           // expression stack
	saveRegs = []reg{8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27} // s0-s11: register locals
	argRegs  = []reg{a0, a1, a2, a3, a4, a5, a6, a7}
)

const (
	scratch = t6 // second scratch: a7 outside of call sequences
	teamOff = 8  // frame slot holding a4 (threads)
)

// form is the assembler's spelling of mn with n operands: what every
// emitted instruction is made from.
func form(mn string, n int) *asm.Form {
	if f := asm.FormOf(mn, n); f != nil {
		return f
	}
	panic(fmt.Sprintf("cc: the assembler has no %s with %d operands", mn, n))
}

var (
	fMv, fNeg, fNot, fSeqz, fSnez = form("mv", 2), form("neg", 2), form("not", 2), form("seqz", 2), form("snez", 2)
	fLi, fLa, fLui                = form("li", 2), form("la", 2), form("lui", 2)
	fLw, fSw                      = form("lw", 2), form("sw", 2)
	fAddi, fAndi, fOri, fXori     = form("addi", 3), form("andi", 3), form("ori", 3), form("xori", 3)
	fSlli, fSrli, fSrai           = form("slli", 3), form("srli", 3), form("srai", 3)
	fAdd, fSub, fMul, fDiv, fRem  = form("add", 3), form("sub", 3), form("mul", 3), form("div", 3), form("rem", 3)
	fAnd, fOr, fXor               = form("and", 3), form("or", 3), form("xor", 3)
	fSll, fSra, fSlt              = form("sll", 3), form("sra", 3), form("slt", 3)
	fJ, fJal, fRet                = form("j", 1), form("jal", 1), form("ret", 0)
	fBeqz, fBnez                  = form("beqz", 2), form("bnez", 2)
	fEbreak                       = form("ebreak", 0)
	fPSet, fPRet, fPSyncm         = form("p_set", 2), form("p_ret", 0), form("p_syncm", 0)
	fPSwre, fPLwre                = form("p_swre", 3), form("p_lwre", 2)

	// op as one instruction over two registers, or a register and an
	// immediate; the branch that jumps when "a op b" holds; op's negation
	binaryOf = map[string]*asm.Form{"+": fAdd, "*": fMul, "/": fDiv, "%": fRem, "&": fAnd, "|": fOr, "^": fXor,
		"<<": fSll, ">>": fSra, "<": fSlt}
	immediateOf = map[string]*asm.Form{"&": fAndi, "|": fOri, "^": fXori}
	branchOf    = map[string]*asm.Form{"==": form("beq", 3), "!=": form("bne", 3), "<": form("blt", 3),
		">": form("bgt", 3), "<=": form("ble", 3), ">=": form("bge", 3)}
	negated = map[string]string{"==": "!=", "!=": "==", "<": ">=", ">": "<=", "<=": ">", ">=": "<"}
)

// codegen emits assembly for a whole program.
type codegen struct {
	prog     *Program
	opt      Options
	list     asm.List
	labels   int
	parallel bool // some function launches a team

	// per function state
	fn        *FuncDecl
	frameSize int
	usedSRegs []int
	savesRA   bool
	savesT0   bool
	spillBase int
	stack     []stackEntry
	breakLbl  []string
	contLbl   []string
}

// stackEntry is one value on the virtual expression stack.
type stackEntry struct {
	flushed bool // value lives in its frame slot, not its register
}

// emit appends an instruction; regs are its register operands in source
// order. emitI and emitS give it an integer or a symbol for its
// immediate, offset or target operand.
func (g *codegen) emit(f *asm.Form, regs ...reg)              { g.list.Inst(f, 0, "", regs...) }
func (g *codegen) emitI(f *asm.Form, imm int64, regs ...reg)  { g.list.Inst(f, imm, "", regs...) }
func (g *codegen) emitS(f *asm.Form, sym string, regs ...reg) { g.list.Inst(f, 0, sym, regs...) }

func (g *codegen) newLabel(hint string) string {
	g.labels++
	return ".L" + hint + "_" + strconv.Itoa(g.labels)
}

func (g *codegen) errf(line int, format string, args ...any) error {
	return errf(line, 1, format, args...)
}

// run generates the whole module.
func (g *codegen) run() error {
	g.list.Verbatim("# generated by MiniC (Deterministic OpenMP dialect)\n")
	g.list.Text()
	for _, f := range g.prog.Funcs {
		if f.Body == nil {
			continue
		}
		if err := g.genFunc(f); err != nil {
			return err
		}
	}
	if g.parallel {
		// The runtime goes before the data section so it assembles into the
		// text image. Its statements are copied: layout writes into them.
		g.list.Append(detomp.Statements())
		if len(g.prog.Globals) > 0 {
			g.list.Verbatim("\n")
		}
	}
	return g.genData()
}

// ---- frame layout ------------------------------------------------------

// layoutFunc assigns storage to locals and computes the frame.
// Frame layout (offsets from sp after the prologue adjustment):
//
//	[0]            saved ra
//	[4]            saved t0
//	[8]            saved a4 team word (threads)
//	[12 ...]       saved s-registers
//	[...]          expression spill / call-save area
//	[...]          memory locals (arrays, structs, addr-taken scalars)
func (g *codegen) layoutFunc(f *FuncDecl) {
	g.usedSRegs = nil
	g.savesRA = stmtCalls(f.Body, "") || f.Name == "main" || f.IsThread
	g.savesT0 = f.Name == "main" || f.IsThread || stmtCalls(f.Body, "__lbp_parallel")
	off := 12 // fixed header: ra, t0, team

	nextS := 0
	for _, sym := range f.locals {
		if sym.Type.IsScalar() && !sym.AddrTaken && nextS < len(saveRegs) {
			sym.Reg = nextS
			g.usedSRegs = append(g.usedSRegs, nextS)
			nextS++
			continue
		}
		sym.Reg = -1
	}
	off += 4 * len(g.usedSRegs)
	// The expression spill / call-save area sits low in the frame so its
	// offsets always fit 12-bit immediates; memory locals (which may be
	// large arrays) come above it and use long-offset addressing when
	// needed.
	g.spillBase = off
	off += 4 * maxSpillSlots
	for _, sym := range f.locals {
		if sym.Reg >= 0 {
			continue
		}
		size := sym.Type.Size()
		if sym.Kind == SymParam {
			size = 4
		}
		sym.FrameOff = off
		off += (size + 3) &^ 3
	}
	g.frameSize = (off + 15) &^ 15
}

// maxSpillSlots bounds the expression-stack spill area (entries beyond
// the five temp registers plus the call-save copies).
const maxSpillSlots = 24

// spillOverflow is the panic value of slotOff, raised deep inside the
// expression generators; genFunc turns it into the function's *Error.
type spillOverflow struct{}

// emitFrameAddr materializes sp+off into dst.
func (g *codegen) emitFrameAddr(dst reg, off int) {
	if off <= 2047 {
		g.emitI(fAddi, int64(off), dst, sp)
		return
	}
	g.emitI(fLi, int64(off), dst)
	g.emit(fAdd, dst, sp, dst)
}

// emitFrameLoad loads a word from sp+off into dst.
func (g *codegen) emitFrameLoad(dst reg, off int) {
	if off <= 2047 {
		g.emitI(fLw, int64(off), dst, sp)
		return
	}
	g.emitFrameAddr(dst, off)
	g.emitI(fLw, 0, dst, dst)
}

// emitFrameStore stores src to sp+off, using a6 for long offsets.
func (g *codegen) emitFrameStore(src reg, off int) {
	if off <= 2047 {
		g.emitI(fSw, int64(off), src, sp)
		return
	}
	g.emitFrameAddr(a6, off)
	g.emitI(fSw, 0, src, a6)
}

// stmtCalls reports whether st calls name — any function, for "".
func stmtCalls(st *Stmt, name string) bool {
	found := false
	rewriteExprs(st, func(e *Expr) {
		if e.Kind == ECall && (name == "" || e.Lhs.Kind == EVar && e.Lhs.Name == name) {
			found = true
		}
	})
	return found
}

// sReg returns the register of a register-assigned symbol.
func sReg(sym *Symbol) reg { return saveRegs[sym.Reg] }

// ---- expression stack ---------------------------------------------------

// slotOff returns the frame offset of virtual-stack entry i.
func (g *codegen) slotOff(i int) int {
	if i >= maxSpillSlots {
		panic(spillOverflow{})
	}
	return g.spillBase + 4*i
}

// push allocates a new stack entry and returns the register to compute
// into: the entry's own, or the scratch for a frame-resident entry,
// which storeTop then stores.
func (g *codegen) push() reg {
	i := len(g.stack)
	g.stack = append(g.stack, stackEntry{})
	if i < len(tempRegs) {
		return tempRegs[i]
	}
	g.slotOff(i) // refuse an entry past the spill area
	return scratch
}

// storeTop finalizes a push when the value was computed in `computed`
// (for frame-resident entries it stores; for register entries it moves
// the value to the entry register unless it is there).
func (g *codegen) storeTop(computed reg) {
	i := len(g.stack) - 1
	if i < len(tempRegs) {
		if computed != tempRegs[i] {
			g.emit(fMv, tempRegs[i], computed)
		}
		return
	}
	g.emitI(fSw, int64(g.slotOff(i)), computed, sp)
}

// pop removes the top entry, materializing it in a register: its own
// temp register when possible, otherwise `want`.
func (g *codegen) pop(want reg) reg {
	i := len(g.stack) - 1
	e := g.stack[i]
	g.stack = g.stack[:i]
	if i < len(tempRegs) {
		r := tempRegs[i]
		if e.flushed {
			g.emitI(fLw, int64(g.slotOff(i)), r, sp)
		}
		return r
	}
	g.emitI(fLw, int64(g.slotOff(i)), want, sp)
	return want
}

// flushBelow writes every live register entry under stack index n to
// its frame slot so a call may clobber the temp registers.
func (g *codegen) flushBelow(n int) {
	for i := range g.stack[:n] {
		if i < len(tempRegs) && !g.stack[i].flushed {
			g.emitI(fSw, int64(g.slotOff(i)), tempRegs[i], sp)
			g.stack[i].flushed = true
		}
	}
}

// ---- function generation -------------------------------------------------

func (g *codegen) genFunc(f *FuncDecl) (err error) {
	defer func() {
		if r := recover(); r == (spillOverflow{}) {
			err = g.errf(f.Line, "function %q: an expression needs more than %d spilled temporaries",
				f.Name, maxSpillSlots)
		} else if r != nil {
			panic(r)
		}
	}()
	g.fn = f
	g.stack = nil
	g.breakLbl, g.contLbl = nil, nil
	g.layoutFunc(f)

	g.list.Label(f.Name)
	if f.Name == "main" {
		g.emitI(fLi, -1, t0) // bare-metal exit identity (Figure 6)
	}
	if g.frameSize <= 2048 {
		g.emitI(fAddi, int64(-g.frameSize), sp, sp)
	} else {
		g.emitI(fLi, int64(g.frameSize), t6)
		g.emit(fSub, sp, sp, t6)
	}
	if g.savesRA {
		g.emitI(fSw, 0, ra, sp)
	}
	if g.savesT0 {
		g.emitI(fSw, 4, t0, sp)
	}
	if f.IsThread {
		g.emitI(fSw, teamOff, a4, sp)
	}
	for _, si := range g.usedSRegs {
		g.emitI(fSw, int64(12+4*si), saveRegs[si], sp)
	}

	// the body: parameter homes, then the statements
	body := len(g.list.Stmts)
	retLbl := ".Lret_" + f.Name
	for i, p := range f.Params {
		argIdx := i
		if f.IsThread {
			argIdx = i + 1 // detomp ABI: a1=data, a2=index, a3=nt, a4=team
		}
		if argIdx >= len(argRegs) {
			return g.errf(f.Line, "too many parameters in %q", f.Name)
		}
		sym := p.Sym
		if sym.Reg >= 0 {
			g.emit(fMv, sReg(sym), argRegs[argIdx])
		} else {
			g.emitFrameStore(argRegs[argIdx], sym.FrameOff)
		}
	}
	if err := g.genStmt(f.Body, retLbl); err != nil {
		return err
	}
	g.list.Stmts = g.list.Stmts[:body+peephole(g.list.Stmts[body:])]

	// fall-through return
	g.list.Label(retLbl)
	for _, si := range g.usedSRegs {
		g.emitI(fLw, int64(12+4*si), saveRegs[si], sp)
	}
	if g.savesRA {
		g.emitI(fLw, 0, ra, sp)
	}
	if g.savesT0 {
		g.emitI(fLw, 4, t0, sp)
	}
	if g.frameSize <= 2047 {
		g.emitI(fAddi, int64(g.frameSize), sp, sp)
	} else {
		g.emitI(fLi, int64(g.frameSize), t6)
		g.emit(fAdd, sp, sp, t6)
	}
	if f.IsThread || f.Name == "main" {
		g.emit(fPRet)
	} else {
		g.emit(fRet)
	}
	g.list.Verbatim("\n")
	return nil
}

// ---- statements -----------------------------------------------------------

func (g *codegen) genStmt(st *Stmt, retLbl string) error {
	switch st.Kind {
	case SEmpty, SPragma:
		return nil
	case SBlock:
		for _, c := range st.List {
			if err := g.genStmt(c, retLbl); err != nil {
				return err
			}
		}
		return nil
	case SDecl:
		d := st.Decl
		if d.Init == nil {
			return nil
		}
		if err := g.genExpr(d.Init); err != nil {
			return err
		}
		r := g.pop(scratch)
		return g.storeVar(d.Sym, r)
	case SExpr:
		used, err := g.genExprForEffect(st.Expr)
		if err != nil {
			return err
		}
		if used {
			g.pop(scratch) // discard value
		}
		return nil
	case SReturn:
		if st.Expr != nil {
			if err := g.genExpr(st.Expr); err != nil {
				return err
			}
			r := g.pop(a0)
			if r != a0 {
				g.emit(fMv, a0, r)
			}
		}
		g.emitS(fJ, retLbl)
		return nil
	case SIf:
		elseLbl := g.newLabel("else")
		endLbl := g.newLabel("endif")
		target := elseLbl
		if st.Else == nil {
			target = endLbl
		}
		if err := g.genCondBranch(st.Expr, target, false); err != nil {
			return err
		}
		if err := g.genStmt(st.Body, retLbl); err != nil {
			return err
		}
		if st.Else != nil {
			g.emitS(fJ, endLbl)
			g.list.Label(elseLbl)
			if err := g.genStmt(st.Else, retLbl); err != nil {
				return err
			}
		}
		g.list.Label(endLbl)
		return nil
	case SWhile:
		top := g.newLabel("while")
		end := g.newLabel("wend")
		g.list.Label(top)
		if err := g.genCondBranch(st.Expr, end, false); err != nil {
			return err
		}
		if err := g.genLoopBody(st.Body, retLbl, end, top); err != nil {
			return err
		}
		g.emitS(fJ, top)
		g.list.Label(end)
		return nil
	case SDoWhile:
		top := g.newLabel("do")
		cont := g.newLabel("docond")
		end := g.newLabel("doend")
		g.list.Label(top)
		if err := g.genLoopBody(st.Body, retLbl, end, cont); err != nil {
			return err
		}
		g.list.Label(cont)
		if err := g.genCondBranch(st.Expr, top, true); err != nil {
			return err
		}
		g.list.Label(end)
		return nil
	case SFor:
		if st.Init != nil {
			if err := g.genStmt(st.Init, retLbl); err != nil {
				return err
			}
		}
		top := g.newLabel("for")
		cont := g.newLabel("fpost")
		end := g.newLabel("fend")
		g.list.Label(top)
		if st.Cond != nil {
			if err := g.genCondBranch(st.Cond, end, false); err != nil {
				return err
			}
		}
		if err := g.genLoopBody(st.Body, retLbl, end, cont); err != nil {
			return err
		}
		g.list.Label(cont)
		if st.Post != nil {
			used, err := g.genExprForEffect(st.Post)
			if err != nil {
				return err
			}
			if used {
				g.pop(scratch)
			}
		}
		g.emitS(fJ, top)
		g.list.Label(end)
		return nil
	case SBreak:
		g.emitS(fJ, g.breakLbl[len(g.breakLbl)-1])
		return nil
	case SContinue:
		g.emitS(fJ, g.contLbl[len(g.contLbl)-1])
		return nil
	}
	return g.errf(st.Line, "internal: statement kind %d", st.Kind)
}

// genLoopBody generates a loop's body, in which break jumps to brk and
// continue to cont.
func (g *codegen) genLoopBody(body *Stmt, retLbl, brk, cont string) error {
	g.breakLbl, g.contLbl = append(g.breakLbl, brk), append(g.contLbl, cont)
	err := g.genStmt(body, retLbl)
	g.breakLbl, g.contLbl = g.breakLbl[:len(g.breakLbl)-1], g.contLbl[:len(g.contLbl)-1]
	return err
}

// genCondBranch evaluates a condition and branches to lbl when the
// condition equals jumpIfTrue. Comparison operators map directly onto
// RISC-V branches.
func (g *codegen) genCondBranch(e *Expr, lbl string, jumpIfTrue bool) error {
	// negation folding
	if e.Kind == EUnary && e.Op == "!" {
		return g.genCondBranch(e.Lhs, lbl, !jumpIfTrue)
	}
	if e.Kind == EBinary {
		switch e.Op {
		case "==", "!=", "<", ">", "<=", ">=":
			// operand shortcuts: register variables and the constant zero
			// feed the branch directly, without a temp copy
			direct := func(x *Expr) (reg, bool) {
				if x.Kind == EVar && x.Sym != nil && x.Sym.Reg >= 0 {
					return sReg(x.Sym), true
				}
				if v, ok := foldConst(x); ok && v == 0 {
					return zero, true
				}
				return 0, false
			}
			lr, lok := direct(e.Lhs)
			rr, rok := direct(e.Rhs)
			if !lok {
				if err := g.genExpr(e.Lhs); err != nil {
					return err
				}
			}
			if !rok {
				if err := g.genExpr(e.Rhs); err != nil {
					return err
				}
			}
			if !rok {
				rr = g.pop(scratch)
			}
			if !lok {
				lr = g.pop(a7)
			}
			op := e.Op
			if !jumpIfTrue {
				op = negated[op]
			}
			g.emitS(branchOf[op], lbl, lr, rr)
			return nil
		case "&&":
			if jumpIfTrue {
				skip := g.newLabel("and")
				if err := g.genCondBranch(e.Lhs, skip, false); err != nil {
					return err
				}
				if err := g.genCondBranch(e.Rhs, lbl, true); err != nil {
					return err
				}
				g.list.Label(skip)
				return nil
			}
			if err := g.genCondBranch(e.Lhs, lbl, false); err != nil {
				return err
			}
			return g.genCondBranch(e.Rhs, lbl, false)
		case "||":
			if jumpIfTrue {
				if err := g.genCondBranch(e.Lhs, lbl, true); err != nil {
					return err
				}
				return g.genCondBranch(e.Rhs, lbl, true)
			}
			skip := g.newLabel("or")
			if err := g.genCondBranch(e.Lhs, skip, true); err != nil {
				return err
			}
			if err := g.genCondBranch(e.Rhs, lbl, false); err != nil {
				return err
			}
			g.list.Label(skip)
			return nil
		}
	}
	if err := g.genExpr(e); err != nil {
		return err
	}
	r := g.pop(scratch)
	if jumpIfTrue {
		g.emitS(fBnez, lbl, r)
	} else {
		g.emitS(fBeqz, lbl, r)
	}
	return nil
}

// storeVar writes register r into a variable's home.
func (g *codegen) storeVar(sym *Symbol, r reg) error {
	if sym.Reg >= 0 {
		g.emit(fMv, sReg(sym), r)
		return nil
	}
	switch sym.Kind {
	case SymGlobal:
		g.emitS(fLa, sym.AsmName, scratch2(r))
		g.emitI(fSw, 0, r, scratch2(r))
	default:
		g.emitFrameStore(r, sym.FrameOff)
	}
	return nil
}

// scratch2 picks a scratch register different from r.
func scratch2(r reg) reg {
	if r == scratch {
		return a7
	}
	return scratch
}
