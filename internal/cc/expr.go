package cc

// Expression parsing: standard C precedence.

// binary operator precedence (higher binds tighter).
var ccBinPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

// parseExpr parses a full expression (comma operator not supported).
func (p *parser) parseExpr() (*Expr, error) {
	return p.parseAssign()
}

func (p *parser) parseAssign() (*Expr, error) {
	lhs, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TPunct && assignOps[t.Val] {
		p.next()
		if err := p.deeper(); err != nil {
			return nil, err
		}
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		p.depth--
		return &Expr{Kind: EAssign, Op: t.Val, Lhs: lhs, Rhs: rhs, Line: t.Line, Col: t.Col}, nil
	}
	return lhs, nil
}

func (p *parser) parseCond() (*Expr, error) {
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.atPunct("?") {
		return cond, nil
	}
	t := p.next()
	if err := p.deeper(); err != nil {
		return nil, err
	}
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	els, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	p.depth--
	return &Expr{Kind: ECond, Lhs: cond, Rhs: then, Third: els, Line: t.Line, Col: t.Col}, nil
}

func (p *parser) parseBinary(minPrec int) (*Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TPunct {
			return lhs, nil
		}
		prec, ok := ccBinPrec[t.Val]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		if err := p.deeper(); err != nil {
			return nil, err
		}
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Expr{Kind: EBinary, Op: t.Val, Lhs: lhs, Rhs: rhs, Line: t.Line, Col: t.Col}
	}
}

// parseUnary is where every operand starts, so every way an expression
// nests — parentheses, unary operators, casts, arguments, subscripts —
// passes here once per level.
func (p *parser) parseUnary() (*Expr, error) {
	if err := p.deeper(); err != nil {
		return nil, err
	}
	e, err := p.unary()
	p.depth--
	return e, err
}

func (p *parser) unary() (*Expr, error) {
	t := p.cur()
	if t.Kind == TPunct {
		switch t.Val {
		case "-", "!", "~", "*", "&":
			p.next()
			e, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Expr{Kind: EUnary, Op: t.Val, Lhs: e, Line: t.Line, Col: t.Col}, nil
		case "+":
			p.next()
			return p.parseUnary()
		case "++", "--":
			p.next()
			e, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Expr{Kind: EIncDec, Op: t.Val, Lhs: e, Prefix: true, Line: t.Line, Col: t.Col}, nil
		case "(":
			// cast: "(int)" / "(type_t *)" / "(void *)": value unchanged,
			// static type retargeted
			if p.isCastAhead() {
				p.next() // (
				ct, err := p.parseTypeSpec()
				if err != nil {
					return nil, err
				}
				for p.acceptPunct("*") {
					ct = ptrTo(ct)
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				e, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return &Expr{Kind: ECast, Lhs: e, CastTo: ct, Line: t.Line, Col: t.Col}, nil
			}
		}
	}
	if t.Kind == TIdent && t.Val == "sizeof" {
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		ty, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		for p.acceptPunct("*") {
			ty = ptrTo(ty)
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &Expr{Kind: ENum, Num: int64(ty.Size()), Line: t.Line, Col: t.Col}, nil
	}
	return p.parsePostfix()
}

// isCastAhead peeks past "(" for a type name followed by ")" or "*...)".
func (p *parser) isCastAhead() bool {
	save := p.pos
	defer func() { p.pos = save }()
	if !p.acceptPunct("(") {
		return false
	}
	if !p.atTypeStart() {
		return false
	}
	if _, err := p.parseTypeSpec(); err != nil {
		return false
	}
	for p.acceptPunct("*") {
	}
	return p.atPunct(")")
}

func (p *parser) parsePostfix() (*Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case p.acceptPunct("["):
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			e = &Expr{Kind: EIndex, Lhs: e, Rhs: idx, Line: t.Line, Col: t.Col}
		case p.acceptPunct("("):
			call := &Expr{Kind: ECall, Lhs: e, Line: t.Line, Col: t.Col}
			if !p.acceptPunct(")") {
				for {
					a, err := p.parseAssign()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.acceptPunct(",") {
						break
					}
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			}
			e = call
		case p.acceptPunct("."):
			f, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			e = &Expr{Kind: EMember, Lhs: e, Name: f.Val, Line: t.Line, Col: t.Col}
		case p.acceptPunct("->"):
			f, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			e = &Expr{Kind: EMember, Lhs: e, Name: f.Val, Arrow: true, Line: t.Line, Col: t.Col}
		case p.atPunct("++") || p.atPunct("--"):
			p.next()
			e = &Expr{Kind: EIncDec, Op: t.Val, Lhs: e, Line: t.Line, Col: t.Col}
		default:
			return e, nil
		}
		if err := p.deeper(); err != nil { // one more postfix operator on the chain
			return nil, err
		}
	}
}

func (p *parser) parsePrimary() (*Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TNum:
		p.next()
		return &Expr{Kind: ENum, Num: t.Num, Line: t.Line, Col: t.Col}, nil
	case p.acceptPunct("("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectPunct(")")
	case t.Kind == TIdent && !keywords[t.Val]:
		p.next()
		return &Expr{Kind: EVar, Name: t.Val, Line: t.Line, Col: t.Col}, nil
	}
	return nil, errf(t.Line, t.Col, "unexpected token %q in expression", t)
}
