package cc

import (
	"math"
	"sync"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	lex     *lexer
	toks    []Token // the tokens lexed so far
	lexErr  error   // what ended the token stream early
	pos     int
	structs map[string]*Type // by typedef/struct name
	depth   int              // tree depth charged on the way to the current token (maxDepth)
}

// deeper charges one level against maxDepth. A recursive production
// releases its level when it returns (p.depth--). An operator that
// extends a left-deep chain does not: the chain ends up above everything
// parsed before it, so its levels stay charged until the statement (or
// the constant expression, which is folded and dropped) is complete.
func (p *parser) deeper() error {
	if p.depth++; p.depth > maxDepth {
		return p.tooDeep()
	}
	return nil
}

// tooDeep is deeper's refusal, apart so that deeper inlines.
func (p *parser) tooDeep() error {
	t := p.cur()
	return errf(t.Line, t.Col, "nesting or operator chain deeper than %d levels", maxDepth)
}

// Parse builds the AST of a MiniC translation unit.
func Parse(src string) (*Program, error) {
	prog, _, err := parse(src)
	return prog, err
}

// parse is Parse, also returning the lexer: how far it read is how far
// the source was tokenized.
func parse(src string) (*Program, *lexer, error) {
	p := &parser{lex: newLexer(src), structs: map[string]*Type{}}
	// The tokens are dead once the tree is built — it copies what it
	// keeps — so the buffer comes from tokPool and goes back to it.
	p.toks = *tokPool.Get().(*[]Token)
	defer p.releaseTokens()
	p.fill()
	prog := &Program{Structs: p.structs}
	var err error
	for err == nil && !p.at(TEOF) {
		if p.atPragma() {
			// top-level pragmas (e.g. GCC stuff) are ignored
			p.next()
			continue
		}
		p.depth = 0
		err = p.topLevel(prog)
	}
	// A lexical error reads as end of input to the parser; whatever it
	// made of that, the lexical error is the one to report.
	if p.lexErr != nil {
		err = p.lexErr
	}
	if err != nil {
		return nil, p.lex, err
	}
	prog.Includes = p.lex.includes
	return prog, p.lex, nil
}

// tokPool holds token buffers between parses.
var tokPool = sync.Pool{New: func() any { return new([]Token) }}

// releaseTokens returns the token buffer to tokPool, cleared, unless it
// grew past maxPooled.
func (p *parser) releaseTokens() {
	toks := p.toks
	p.toks = nil
	if cap(toks) > maxPooled {
		return
	}
	clear(toks)
	toks = toks[:0]
	tokPool.Put(&toks)
}

// fill lexes one more token. The parser pulls tokens as it goes, so a
// source it refuses is not tokenized past the refusal. A lexical error
// ends the stream: it is kept for Parse to report, and the parser reads
// end of input from there on.
func (p *parser) fill() {
	var t Token
	if p.lexErr == nil {
		t, p.lexErr = p.lex.next()
	}
	if p.lexErr != nil {
		t = Token{Kind: TEOF, Line: p.lex.line, Col: p.lex.col}
	}
	p.toks = append(p.toks, t)
}

// advance moves to the next token; the current token is always lexed
// (isCastAhead backtracks, so it may have been lexed before).
func (p *parser) advance() {
	if p.pos++; p.pos == len(p.toks) {
		p.fill()
	}
}

// peek returns the token k places ahead; past the end of input every
// token is EOF.
func (p *parser) peek(k int) Token {
	for len(p.toks) <= p.pos+k {
		p.fill()
	}
	return p.toks[p.pos+k]
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.advance(); return t }

func (p *parser) at(k TokKind) bool { return p.cur().Kind == k }
func (p *parser) atPragma() bool    { return p.cur().Kind == TPragma }

func (p *parser) atPunct(v string) bool {
	return p.cur().Kind == TPunct && p.cur().Val == v
}

func (p *parser) atIdent(v string) bool {
	return p.cur().Kind == TIdent && p.cur().Val == v
}

func (p *parser) acceptPunct(v string) bool {
	if p.atPunct(v) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptIdent(v string) bool {
	if p.atIdent(v) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(v string) error {
	if !p.acceptPunct(v) {
		return errf(p.cur().Line, p.cur().Col, "expected %q, got %q", v, p.cur())
	}
	return nil
}

func (p *parser) expectIdent() (Token, error) {
	t := p.cur()
	if t.Kind != TIdent || keywords[t.Val] {
		return t, errf(t.Line, t.Col, "expected identifier, got %q", t)
	}
	p.advance()
	return t, nil
}

// atTypeStart reports whether the current token begins a type.
func (p *parser) atTypeStart() bool {
	t := p.cur()
	if t.Kind != TIdent {
		return false
	}
	switch t.Val {
	case "int", "void", "struct", "unsigned", "const", "static":
		return true
	}
	_, isType := p.structs[t.Val]
	return isType
}

// parseTypeSpec parses the base type (no declarator stars).
func (p *parser) parseTypeSpec() (*Type, error) {
	for p.acceptIdent("const") || p.acceptIdent("static") || p.acceptIdent("unsigned") {
	}
	t := p.cur()
	switch {
	case p.acceptIdent("int"):
		return typeInt, nil
	case p.acceptIdent("void"):
		return typeVoid, nil
	case p.acceptIdent("struct"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.atPunct("{") {
			return p.parseStructBody(name.Val)
		}
		st, ok := p.structs[name.Val]
		if !ok {
			return nil, errf(name.Line, name.Col, "unknown struct %q", name.Val)
		}
		return st, nil
	case t.Kind == TIdent:
		if st, ok := p.structs[t.Val]; ok {
			p.advance()
			return st, nil
		}
	}
	return nil, errf(t.Line, t.Col, "expected type, got %q", t)
}

// parseStructBody parses "{ fields }" and registers the struct.
func (p *parser) parseStructBody(name string) (*Type, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	st := &Type{Kind: TypeStruct, Name: name}
	off := 0
	for !p.acceptPunct("}") {
		base, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		for {
			ft := base
			for p.acceptPunct("*") {
				ft = ptrTo(ft)
			}
			fn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if p.acceptPunct("[") {
				lenTok := p.cur()
				n, err := p.parseConstExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct("]"); err != nil {
					return nil, err
				}
				if n <= 0 {
					return nil, errf(lenTok.Line, lenTok.Col, "bad array length %d", n)
				}
				ft = &Type{Kind: TypeArray, Elem: ft, Len: int(n)}
			}
			st.Fields = append(st.Fields, Field{Name: fn.Val, Type: ft, Offset: off})
			off += ft.Size()
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
	}
	st.size = off
	p.structs[name] = st
	return st, nil
}

// topLevel parses one global declaration.
func (p *parser) topLevel(prog *Program) error {
	// typedef struct {...} name;
	if p.acceptIdent("typedef") {
		if !p.acceptIdent("struct") {
			return errf(p.cur().Line, p.cur().Col, "only 'typedef struct' is supported")
		}
		var tagName string
		if p.cur().Kind == TIdent && !p.atPunct("{") && !keywords[p.cur().Val] {
			tagName = p.next().Val
		}
		st, err := p.parseStructBody(tagName)
		if err != nil {
			return err
		}
		alias, err := p.expectIdent()
		if err != nil {
			return err
		}
		if st.Name == "" {
			st.Name = alias.Val
		}
		p.structs[alias.Val] = st
		return p.expectPunct(";")
	}
	if t := p.peek(2); p.atIdent("struct") && t.Kind == TPunct && t.Val == "{" {
		p.next() // struct
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if _, err := p.parseStructBody(name.Val); err != nil {
			return err
		}
		return p.expectPunct(";")
	}

	base, err := p.parseTypeSpec()
	if err != nil {
		return err
	}
	for {
		t := base
		for p.acceptPunct("*") {
			t = ptrTo(t)
		}
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if p.atPunct("(") {
			fn, err := p.parseFunc(t, name)
			if err != nil {
				return err
			}
			prog.Funcs = append(prog.Funcs, fn)
			return nil
		}
		vd, err := p.parseVarTail(t, name)
		if err != nil {
			return err
		}
		prog.Globals = append(prog.Globals, vd)
		if p.acceptPunct(",") {
			continue
		}
		return p.expectPunct(";")
	}
}

// parseVarTail parses the rest of a variable declaration after the name:
// optional array length, __bank attribute and initializer.
func (p *parser) parseVarTail(t *Type, name Token) (*VarDecl, error) {
	vd := &VarDecl{Name: name.Val, Type: t, Bank: -1, Line: name.Line}
	if p.acceptPunct("[") {
		n, err := p.parseConstExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, errf(name.Line, name.Col, "bad array length %d for %q", n, name.Val)
		}
		vd.Type = &Type{Kind: TypeArray, Elem: t, Len: int(n)}
	}
	if p.acceptIdent("__bank") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		n, err := p.parseConstExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		vd.Bank = int(n)
	}
	if p.acceptPunct("=") {
		if p.atPunct("{") {
			list, err := p.parseArrayInit(vd)
			if err != nil {
				return nil, err
			}
			vd.List = list
		} else {
			e, err := p.parseAssign()
			if err != nil {
				return nil, err
			}
			vd.Init = e
		}
	}
	return vd, nil
}

// parseArrayInit parses "{ e, e, ... }" and "{ [a ... b] = v }" forms.
func (p *parser) parseArrayInit(vd *VarDecl) ([]InitEntry, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []InitEntry
	idx := 0
	for !p.acceptPunct("}") {
		if p.acceptPunct("[") {
			lo, err := p.parseConstExpr()
			if err != nil {
				return nil, err
			}
			hi := lo
			if p.acceptPunct("...") {
				hi, err = p.parseConstExpr()
				if err != nil {
					return nil, err
				}
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			v, err := p.parseConstExpr()
			if err != nil {
				return nil, err
			}
			out = append(out, InitEntry{Lo: int(lo), Hi: int(hi), Value: v})
			idx = int(hi) + 1
		} else {
			v, err := p.parseConstExpr()
			if err != nil {
				return nil, err
			}
			out = append(out, InitEntry{Lo: idx, Hi: idx, Value: v})
			idx++
		}
		if !p.acceptPunct(",") {
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			break
		}
	}
	return out, nil
}

// parseConstExpr parses and folds a constant expression.
func (p *parser) parseConstExpr() (int64, error) {
	depth := p.depth
	e, err := p.parseCond()
	if err != nil {
		return 0, err
	}
	p.depth = depth
	v, ok := foldConst(e)
	if !ok {
		return 0, errf(e.Line, e.Col, "expression is not constant")
	}
	return v, nil
}

// foldConst evaluates a constant expression at compile time. Every
// intermediate result is truncated to int32, because that is what the
// RV32IM machine computes at run time: folding in a wider type would
// let an overflowed subexpression (e.g. 2000000000 + 2000000000) feed
// a comparison, shift or division with a value the hardware never
// sees. Found by the determinism fuzzer (testdata/fuzz/fold-*.c).
func foldConst(e *Expr) (int64, bool) {
	v, ok := foldConst32(e)
	return int64(v), ok
}

func foldConst32(e *Expr) (int32, bool) {
	switch e.Kind {
	case ENum:
		return int32(e.Num), true
	case EUnary:
		v, ok := foldConst32(e.Lhs)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case "-":
			return -v, true
		case "~":
			return ^v, true
		case "!":
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case EBinary:
		a, ok1 := foldConst32(e.Lhs)
		b, ok2 := foldConst32(e.Rhs)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch e.Op {
		case "+":
			return a + b, true
		case "-":
			return a - b, true
		case "*":
			return a * b, true
		case "/":
			if b == 0 {
				// The machine defines x/0 = -1, but refusing to fold
				// keeps division-by-zero visible in the emitted code.
				return 0, false
			}
			if a == math.MinInt32 && b == -1 {
				return math.MinInt32, true // RV32IM overflow case
			}
			return a / b, true
		case "%":
			if b == 0 {
				return 0, false
			}
			if a == math.MinInt32 && b == -1 {
				return 0, true // RV32IM overflow case
			}
			return a % b, true
		case "<<":
			return a << (uint32(b) & 31), true
		case ">>":
			return a >> (uint32(b) & 31), true
		case "&":
			return a & b, true
		case "|":
			return a | b, true
		case "^":
			return a ^ b, true
		case "==":
			return b2i(a == b), true
		case "!=":
			return b2i(a != b), true
		case "<":
			return b2i(a < b), true
		case ">":
			return b2i(a > b), true
		case "<=":
			return b2i(a <= b), true
		case ">=":
			return b2i(a >= b), true
		case "&&":
			return b2i(a != 0 && b != 0), true
		case "||":
			return b2i(a != 0 || b != 0), true
		}
	case ECond:
		c, ok := foldConst32(e.Lhs)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return foldConst32(e.Rhs)
		}
		return foldConst32(e.Third)
	}
	return 0, false
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// parseFunc parses a function definition after its name.
func (p *parser) parseFunc(ret *Type, name Token) (*FuncDecl, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	fn := &FuncDecl{Name: name.Val, Ret: ret, Line: name.Line}
	if !p.acceptPunct(")") {
		if p.atIdent("void") && p.peek(1).Val == ")" {
			p.next()
			p.next()
		} else {
			for {
				base, err := p.parseTypeSpec()
				if err != nil {
					return nil, err
				}
				t := base
				for p.acceptPunct("*") {
					t = ptrTo(t)
				}
				pn, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				if p.acceptPunct("[") { // array param decays to pointer
					if !p.atPunct("]") {
						if _, err := p.parseConstExpr(); err != nil {
							return nil, err
						}
					}
					if err := p.expectPunct("]"); err != nil {
						return nil, err
					}
					t = ptrTo(t)
				}
				fn.Params = append(fn.Params, &VarDecl{Name: pn.Val, Type: t, Bank: -1, Line: pn.Line})
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
	}
	if p.acceptPunct(";") { // prototype: record with nil body
		fn.Body = nil
		return fn, nil
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

// ---- statements ----

func (p *parser) parseBlock() (*Stmt, error) {
	line := p.cur().Line
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	blk := &Stmt{Kind: SBlock, Line: line}
	for !p.acceptPunct("}") {
		if p.at(TEOF) {
			return nil, errf(line, 1, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.List = append(blk.List, s)
	}
	return blk, nil
}

// parseStmt charges the statement's own level and, when the statement is
// complete, releases it together with whatever its operator chains left
// charged (see deeper).
func (p *parser) parseStmt() (*Stmt, error) {
	depth := p.depth
	if err := p.deeper(); err != nil {
		return nil, err
	}
	st, err := p.stmt()
	p.depth = depth
	return st, err
}

func (p *parser) stmt() (*Stmt, error) {
	t := p.cur()
	switch {
	case t.Kind == TPragma:
		p.next()
		return &Stmt{Kind: SPragma, Prag: t.Val, Line: t.Line}, nil
	case p.atPunct("{"):
		return p.parseBlock()
	case p.acceptPunct(";"):
		return &Stmt{Kind: SEmpty, Line: t.Line}, nil
	case p.acceptIdent("if"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st := &Stmt{Kind: SIf, Expr: cond, Body: body, Line: t.Line}
		if p.acceptIdent("else") {
			st.Else, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return st, nil
	case p.acceptIdent("while"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &Stmt{Kind: SWhile, Expr: cond, Body: body, Line: t.Line}, nil
	case p.acceptIdent("do"):
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if !p.acceptIdent("while") {
			return nil, errf(p.cur().Line, p.cur().Col, "expected 'while' after do body")
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &Stmt{Kind: SDoWhile, Expr: cond, Body: body, Line: t.Line}, nil
	case p.acceptIdent("for"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		st := &Stmt{Kind: SFor, Line: t.Line}
		if !p.acceptPunct(";") {
			if p.atTypeStart() {
				d, err := p.parseLocalDecl()
				if err != nil {
					return nil, err
				}
				st.Init = d
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				st.Init = &Stmt{Kind: SExpr, Expr: e, Line: t.Line}
				if err := p.expectPunct(";"); err != nil {
					return nil, err
				}
			}
		}
		if !p.atPunct(";") {
			var err error
			st.Cond, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		if !p.atPunct(")") {
			var err error
			st.Post, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Body = body
		return st, nil
	case p.acceptIdent("return"):
		st := &Stmt{Kind: SReturn, Line: t.Line}
		if !p.atPunct(";") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Expr = e
		}
		return st, p.expectPunct(";")
	case p.acceptIdent("break"):
		return &Stmt{Kind: SBreak, Line: t.Line}, p.expectPunct(";")
	case p.acceptIdent("continue"):
		return &Stmt{Kind: SContinue, Line: t.Line}, p.expectPunct(";")
	case p.atTypeStart():
		return p.parseLocalDecl()
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Stmt{Kind: SExpr, Expr: e, Line: t.Line}, p.expectPunct(";")
}

// parseLocalDecl parses "type name [= init] (, name...)?;" producing a
// block of SDecl statements when several names are declared.
func (p *parser) parseLocalDecl() (*Stmt, error) {
	line := p.cur().Line
	base, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	var decls []*Stmt
	for {
		t := base
		for p.acceptPunct("*") {
			t = ptrTo(t)
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		vd, err := p.parseVarTail(t, name)
		if err != nil {
			return nil, err
		}
		decls = append(decls, &Stmt{Kind: SDecl, Decl: vd, Line: name.Line})
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if len(decls) == 1 {
		return decls[0], nil
	}
	return &Stmt{Kind: SBlock, List: decls, Line: line, NoScope: true}, nil
}
