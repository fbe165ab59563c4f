// Package fuzzgen generates random whole MiniC + Deterministic OpenMP
// programs, evaluates them under sequential C semantics with a Go
// reference evaluator, and differentially checks the compiled program
// on the simulated LBP machine across a {cores} × {-ffwd} matrix:
// every run must reproduce the reference memory image bit-for-bit and
// all runs on one machine geometry must share a single trace digest.
//
// Programs are race-free by construction, so their parallel and
// sequential semantics coincide (the paper's determinism claim then
// says every schedule must produce the sequential answer):
//
//   - a `#pragma omp parallel for` iteration writes only its own
//     element arr[i] of each target array, reads arrays outside the
//     region's write set (or its own element), and never writes
//     scalars except through a reduction clause;
//   - reduction operators are limited to the associative-commutative
//     int32 ring ops (+ * & | ^), so any combination order is exact;
//   - `parallel sections` write pairwise-disjoint scalars and read
//     only state no section writes.
//
// All arithmetic is two's-complement int32 with the RV32IM edge
// semantics the machine implements (shift amounts mask to 5 bits,
// x/0 = -1, x%0 = x, INT_MIN/-1 = INT_MIN), which agree with C
// everywhere C defines the result.
package fuzzgen

import (
	"fmt"
	"strings"
)

// ---- Expressions ----------------------------------------------------------

// ExprKind discriminates expression nodes.
type ExprKind uint8

const (
	ENum    ExprKind = iota
	EScalar          // scalar global (Name)
	ELoop            // loop variable (Name)
	EIndex           // array element read, see Expr.Idx
	EUnary           // Op: - ~ !
	EBinary          // Op: + - * / % & | ^ << >> < > <= >= == != && ||
	ECond            // X ? Y : Z
)

// Expr is an int32-valued expression. EIndex reads array Name: with a
// non-nil Idx the rendered index is ((Idx) & Mask) (Mask = len-1, so
// the access is always in bounds); with a nil Idx it is the own-element
// read Name[Loop] inside a parallel loop.
type Expr struct {
	Kind ExprKind
	Op   string
	Num  int32
	Name string
	Idx  *Expr
	Loop string
	Mask int32
	X    *Expr
	Y    *Expr
	Z    *Expr
}

// ---- Statements -----------------------------------------------------------

// Stmt is a statement of the generated program.
type Stmt interface{ stmt() }

// Assign updates a scalar global: Name Op E (Op is "=" or a compound
// assignment operator).
type Assign struct {
	Name string
	Op   string // = += -= *= &= |= ^=
	E    *Expr
}

// Store updates an array element. With a non-nil Idx the target is
// Name[(Idx) & Mask]; a nil Idx is the own-element store Name[Loop]
// of a parallel-for iteration.
type Store struct {
	Name string
	Mask int32
	Idx  *Expr
	Loop string
	Op   string // = += -= *= &= |= ^=
	E    *Expr
}

// If is a two-way branch over sequential statements.
type If struct {
	Cond *Expr
	Then []Stmt
	Else []Stmt // may be empty
}

// SeqFor is a sequential counted loop: for (Var = 0; Var < N; Var++).
type SeqFor struct {
	Var  string
	N    int
	Body []Stmt
}

// Reduction is a `reduction(Op:Name)` clause; each iteration performs
// Name = Name Op (E). Op is one of + * & | ^ (associative and
// commutative over int32, so the combine order cannot matter).
type Reduction struct {
	Name string
	Op   string
	E    *Expr
}

// ParFor is a `#pragma omp parallel for` loop running Trip team
// members i = Lo .. Lo+Trip-1. Every write is an own-element store
// (Idx == nil, Loop == Var); expressions inside the body read only
// the loop variable, scalars (minus the reduction variable), arrays
// outside the write set, and own elements.
type ParFor struct {
	Var    string
	Lo     int
	Trip   int
	Red    *Reduction // optional
	Writes []*Store
}

// Sections is a `#pragma omp parallel sections` block; each section
// assigns one scalar global, all targets pairwise distinct.
type Sections struct {
	Secs []*Assign
}

func (*Assign) stmt()   {}
func (*Store) stmt()    {}
func (*If) stmt()       {}
func (*SeqFor) stmt()   {}
func (*ParFor) stmt()   {}
func (*Sections) stmt() {}

// ---- Program --------------------------------------------------------------

// Global declares one global: a scalar (Len == 0) or an int array of
// Len elements (a power of two). Bank >= 0 pins it to shared bank
// Bank via __bank(n); Init holds the initial values (length 1 for a
// scalar, Len for an array).
type Global struct {
	Name string
	Len  int
	Bank int
	Init []int32
}

// IsArray reports whether the global is an array.
func (g *Global) IsArray() bool { return g.Len > 0 }

// Prog is one generated program plus the metadata the differential
// checker needs: Seed reproduces it via Generate, and MinCores is the
// smallest machine it may run on (team sizes fit 4*MinCores harts and
// __bank placements stay below MinCores).
type Prog struct {
	Seed     int64
	MinCores int
	Globals  []*Global
	Stmts    []Stmt
}

// Global returns the named global, or nil.
func (p *Prog) Global(name string) *Global {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// ---- Rendering ------------------------------------------------------------

// Render emits the program as MiniC source accepted by internal/cc.
func (p *Prog) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* fuzzgen seed=%d mincores=%d */\n", p.Seed, p.MinCores)
	for _, g := range p.Globals {
		b.WriteString("int ")
		b.WriteString(g.Name)
		if g.IsArray() {
			fmt.Fprintf(&b, "[%d]", g.Len)
		}
		if g.Bank >= 0 {
			fmt.Fprintf(&b, " __bank(%d)", g.Bank)
		}
		if len(g.Init) > 0 {
			if g.IsArray() {
				b.WriteString(" = {")
				for i, v := range g.Init {
					if i > 0 {
						b.WriteString(", ")
					}
					fmt.Fprintf(&b, "%d", v)
				}
				b.WriteString("}")
			} else {
				fmt.Fprintf(&b, " = %d", g.Init[0])
			}
		}
		b.WriteString(";\n")
	}
	b.WriteString("void main() {\n")
	renderStmts(&b, p.Stmts, 1)
	b.WriteString("}\n")
	return b.String()
}

func indent(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteByte('\t')
	}
}

func renderStmts(b *strings.Builder, list []Stmt, depth int) {
	for _, s := range list {
		renderStmt(b, s, depth)
	}
}

func renderStmt(b *strings.Builder, s Stmt, depth int) {
	switch s := s.(type) {
	case *Assign:
		indent(b, depth)
		fmt.Fprintf(b, "%s %s ", s.Name, s.Op)
		renderExpr(b, s.E)
		b.WriteString(";\n")
	case *Store:
		indent(b, depth)
		b.WriteString(s.Name)
		renderIndex(b, s.Idx, s.Loop, s.Mask)
		fmt.Fprintf(b, " %s ", s.Op)
		renderExpr(b, s.E)
		b.WriteString(";\n")
	case *If:
		indent(b, depth)
		b.WriteString("if (")
		renderExpr(b, s.Cond)
		b.WriteString(") {\n")
		renderStmts(b, s.Then, depth+1)
		indent(b, depth)
		if len(s.Else) == 0 {
			b.WriteString("}\n")
			return
		}
		b.WriteString("} else {\n")
		renderStmts(b, s.Else, depth+1)
		indent(b, depth)
		b.WriteString("}\n")
	case *SeqFor:
		indent(b, depth)
		fmt.Fprintf(b, "for (int %s = 0; %s < %d; %s++) {\n", s.Var, s.Var, s.N, s.Var)
		renderStmts(b, s.Body, depth+1)
		indent(b, depth)
		b.WriteString("}\n")
	case *ParFor:
		indent(b, depth)
		b.WriteString("#pragma omp parallel for")
		if s.Red != nil {
			fmt.Fprintf(b, " reduction(%s:%s)", s.Red.Op, s.Red.Name)
		}
		b.WriteString("\n")
		indent(b, depth)
		fmt.Fprintf(b, "for (int %s = %d; %s < %d; %s++) {\n",
			s.Var, s.Lo, s.Var, s.Lo+s.Trip, s.Var)
		for _, w := range s.Writes {
			renderStmt(b, w, depth+1)
		}
		if s.Red != nil {
			indent(b, depth+1)
			fmt.Fprintf(b, "%s = %s %s (", s.Red.Name, s.Red.Name, s.Red.Op)
			renderExpr(b, s.Red.E)
			b.WriteString(");\n")
		}
		indent(b, depth)
		b.WriteString("}\n")
	case *Sections:
		indent(b, depth)
		b.WriteString("#pragma omp parallel sections\n")
		indent(b, depth)
		b.WriteString("{\n")
		for _, sec := range s.Secs {
			indent(b, depth+1)
			b.WriteString("#pragma omp section\n")
			renderStmt(b, sec, depth+1)
		}
		indent(b, depth)
		b.WriteString("}\n")
	}
}

func renderIndex(b *strings.Builder, idx *Expr, loop string, mask int32) {
	if idx == nil {
		fmt.Fprintf(b, "[%s]", loop)
		return
	}
	b.WriteString("[(")
	renderExpr(b, idx)
	fmt.Fprintf(b, ") & %d]", mask)
}

func renderExpr(b *strings.Builder, e *Expr) {
	switch e.Kind {
	case ENum:
		fmt.Fprintf(b, "%d", e.Num)
	case EScalar, ELoop:
		b.WriteString(e.Name)
	case EIndex:
		b.WriteString(e.Name)
		renderIndex(b, e.Idx, e.Loop, e.Mask)
	case EUnary:
		fmt.Fprintf(b, "(%s(", e.Op)
		renderExpr(b, e.X)
		b.WriteString("))")
	case EBinary:
		b.WriteString("((")
		renderExpr(b, e.X)
		fmt.Fprintf(b, ") %s (", e.Op)
		renderExpr(b, e.Y)
		b.WriteString("))")
	case ECond:
		b.WriteString("((")
		renderExpr(b, e.X)
		b.WriteString(") ? (")
		renderExpr(b, e.Y)
		b.WriteString(") : (")
		renderExpr(b, e.Z)
		b.WriteString("))")
	}
}

// ---- Cloning (the shrinker mutates deep copies) ---------------------------

// Clone deep-copies the program.
func (p *Prog) Clone() *Prog {
	c := &Prog{Seed: p.Seed, MinCores: p.MinCores}
	for _, g := range p.Globals {
		gg := *g
		gg.Init = append([]int32(nil), g.Init...)
		c.Globals = append(c.Globals, &gg)
	}
	c.Stmts = cloneStmts(p.Stmts)
	return c
}

func cloneStmts(list []Stmt) []Stmt {
	if list == nil {
		return nil
	}
	out := make([]Stmt, len(list))
	for i, s := range list {
		out[i] = cloneStmt(s)
	}
	return out
}

func cloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *Assign:
		return &Assign{Name: s.Name, Op: s.Op, E: cloneExpr(s.E)}
	case *Store:
		return &Store{Name: s.Name, Mask: s.Mask, Idx: cloneExpr(s.Idx),
			Loop: s.Loop, Op: s.Op, E: cloneExpr(s.E)}
	case *If:
		return &If{Cond: cloneExpr(s.Cond), Then: cloneStmts(s.Then), Else: cloneStmts(s.Else)}
	case *SeqFor:
		return &SeqFor{Var: s.Var, N: s.N, Body: cloneStmts(s.Body)}
	case *ParFor:
		c := &ParFor{Var: s.Var, Lo: s.Lo, Trip: s.Trip}
		if s.Red != nil {
			c.Red = &Reduction{Name: s.Red.Name, Op: s.Red.Op, E: cloneExpr(s.Red.E)}
		}
		for _, w := range s.Writes {
			c.Writes = append(c.Writes, cloneStmt(w).(*Store))
		}
		return c
	case *Sections:
		c := &Sections{}
		for _, sec := range s.Secs {
			c.Secs = append(c.Secs, cloneStmt(sec).(*Assign))
		}
		return c
	}
	panic("fuzzgen: unknown statement type")
}

func cloneExpr(e *Expr) *Expr {
	if e == nil {
		return nil
	}
	c := *e
	c.Idx = cloneExpr(e.Idx)
	c.X = cloneExpr(e.X)
	c.Y = cloneExpr(e.Y)
	c.Z = cloneExpr(e.Z)
	return &c
}
