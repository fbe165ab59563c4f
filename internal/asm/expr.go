package asm

import (
	"errors"
	"strconv"
	"strings"
)

// errUndefined is eval's answer to a symbol that has no value (yet);
// a.undef names it. Layout takes it for a forward reference where one is
// allowed (li, la); evalNow turns it into the error the user sees.
var errUndefined = errors.New("undefined symbol")

// evalNow evaluates an expression whose every symbol must be defined.
func (a *assembler) evalNow(line int, s string) (int64, error) {
	v, err := a.eval(line, s)
	if err == errUndefined {
		return 0, errf(line, "undefined symbol %q", a.undef)
	}
	return v, err
}

// maxExprDepth bounds the nesting of parentheses and unary operators:
// the parser recurses once per level, and a request body may be 8 MiB
// of '('.
const maxExprDepth = 256

// eval evaluates an assembler expression: integer literals (decimal, hex,
// char), symbols, %hi(...)/%lo(...), unary -/~, binary + - * / % << >> & | ^
// with C precedence, and parentheses.
func (a *assembler) eval(line int, s string) (int64, error) {
	p := &exprParser{a: a, l: line, s: s}
	v, err := p.parse(0)
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return 0, errf(line, "trailing garbage in expression %q", s)
	}
	return v, nil
}

type exprParser struct {
	a     *assembler
	l     int // source line
	s     string
	pos   int
	depth int
}

// binary operator precedence levels (higher binds tighter)
var binPrec = map[string]int{
	"|": 1, "^": 2, "&": 3,
	"<<": 4, ">>": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) peekOp() string {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return ""
	}
	two := ""
	if p.pos+1 < len(p.s) {
		two = p.s[p.pos : p.pos+2]
	}
	if two == "<<" || two == ">>" {
		return two
	}
	c := p.s[p.pos]
	if strings.ContainsRune("|^&+-*/%", rune(c)) {
		return string(c)
	}
	return ""
}

func (p *exprParser) parse(minPrec int) (int64, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		op := p.peekOp()
		prec, ok := binPrec[op]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.pos += len(op)
		rhs, err := p.parse(prec + 1)
		if err != nil {
			return 0, err
		}
		switch op {
		case "+":
			lhs += rhs
		case "-":
			lhs -= rhs
		case "*":
			lhs *= rhs
		case "/":
			if rhs == 0 {
				return 0, errf(p.l, "division by zero in expression")
			}
			lhs /= rhs
		case "%":
			if rhs == 0 {
				return 0, errf(p.l, "modulo by zero in expression")
			}
			lhs %= rhs
		case "<<":
			lhs <<= uint(rhs)
		case ">>":
			lhs >>= uint(rhs)
		case "&":
			lhs &= rhs
		case "|":
			lhs |= rhs
		case "^":
			lhs ^= rhs
		}
	}
}

// parseUnary parses one operand of a binary operator. Every recursion
// of the parser comes through here, so this is where depth is counted.
func (p *exprParser) parseUnary() (int64, error) {
	if p.depth == maxExprDepth {
		return 0, errf(p.l, "expression nested deeper than %d levels", maxExprDepth)
	}
	p.depth++
	v, err := p.unary()
	p.depth--
	return v, err
}

func (p *exprParser) unary() (int64, error) {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return 0, errf(p.l, "unexpected end of expression %q", p.s)
	}
	switch p.s[p.pos] {
	case '-':
		p.pos++
		v, err := p.parseUnary()
		return -v, err
	case '~':
		p.pos++
		v, err := p.parseUnary()
		return ^v, err
	case '(':
		p.pos++
		v, err := p.parse(0)
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if p.pos >= len(p.s) || p.s[p.pos] != ')' {
			return 0, errf(p.l, "missing ')' in expression %q", p.s)
		}
		p.pos++
		return v, nil
	case '%':
		// %hi( ... ) / %lo( ... )
		rest := p.s[p.pos:]
		var hi bool
		switch {
		case strings.HasPrefix(rest, "%hi("):
			hi = true
		case strings.HasPrefix(rest, "%lo("):
		default:
			return 0, errf(p.l, "bad %% function in %q", p.s)
		}
		p.pos += 4
		v, err := p.parse(0)
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if p.pos >= len(p.s) || p.s[p.pos] != ')' {
			return 0, errf(p.l, "missing ')' after %%hi/%%lo")
		}
		p.pos++
		u := uint32(v)
		lo := int64(int32(u<<20) >> 20) // sign-extended low 12 bits
		if hi {
			return int64((u - uint32(lo)) >> 12), nil
		}
		return lo, nil
	case '\'':
		// char literal
		end := strings.IndexByte(p.s[p.pos+1:], '\'')
		if end < 0 {
			return 0, errf(p.l, "unterminated char literal")
		}
		lit := p.s[p.pos+1 : p.pos+1+end]
		p.pos += end + 2
		if len(lit) == 1 {
			return int64(lit[0]), nil
		}
		if len(lit) == 2 && lit[0] == '\\' {
			switch lit[1] {
			case 'n':
				return '\n', nil
			case 't':
				return '\t', nil
			case '0':
				return 0, nil
			case '\\':
				return '\\', nil
			}
		}
		return 0, errf(p.l, "bad char literal %q", lit)
	}
	start := p.pos
	c := p.s[p.pos]
	if c >= '0' && c <= '9' {
		for p.pos < len(p.s) && isNumChar(p.s[p.pos]) {
			p.pos++
		}
		lit := p.s[start:p.pos]
		v, err := strconv.ParseInt(lit, 0, 64)
		if err != nil {
			// try unsigned (e.g. 0xFFFFFFFF)
			u, uerr := strconv.ParseUint(lit, 0, 64)
			if uerr != nil {
				return 0, errf(p.l, "bad number %q", lit)
			}
			v = int64(u)
		}
		return v, nil
	}
	// symbol
	for p.pos < len(p.s) && isIdentChar(p.s[p.pos]) {
		p.pos++
	}
	name := p.s[start:p.pos]
	if name == "" {
		return 0, errf(p.l, "bad expression %q at %q", p.s, p.s[p.pos:])
	}
	if v, ok := p.a.equs[name]; ok {
		return v, nil
	}
	if v, ok := p.a.symbols[name]; ok {
		return int64(v), nil
	}
	p.a.undef = name
	return 0, errUndefined
}

func isNumChar(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' ||
		c == 'x' || c == 'X' || c == 'b' || c == 'B' || c == 'o' || c == 'O'
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '.' || c == '$'
}
