// Package cc implements MiniC, a from-scratch compiler for the C subset
// used by the paper's Deterministic OpenMP programs. It covers integer
// scalars, pointers, one-dimensional arrays, structs of ints, functions,
// the usual statements and expressions, a small preprocessor (#define,
// #include, #pragma) and the OpenMP pragmas `parallel for` (with an
// optional reduction clause) and `parallel sections`.
//
// The compiler emits RV32IM + X_PAR assembly that links against the
// Deterministic OpenMP runtime (package detomp): each `parallel for`
// iteration becomes one team member placed deterministically on the LBP
// core line, exactly as Figures 2-4 of the paper describe.
package cc

import (
	"fmt"
	"strings"
)

// TokKind classifies tokens.
type TokKind uint8

const (
	TEOF TokKind = iota
	TIdent
	TNum
	TPunct
	TPragma // a "#pragma ..." line; Val holds the text after "#pragma"
)

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Val  string
	Num  int64
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TEOF:
		return "<eof>"
	case TNum:
		return fmt.Sprintf("%d", t.Num)
	case TPragma:
		return "#pragma " + t.Val
	default:
		return t.Val
	}
}

// Error is a compile error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("cc: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

func errf(line, col int, format string, args ...any) error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// keywords of MiniC.
var keywords = map[string]bool{
	"int": true, "void": true, "if": true, "else": true, "for": true,
	"while": true, "do": true, "return": true, "break": true,
	"continue": true, "struct": true, "typedef": true, "sizeof": true,
	"static": true, "const": true, "unsigned": true,
}

// punctuators, longest first.
var puncts = []string{
	"<<=", ">>=", "...",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
	"(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
}

// punctsBy lists the punctuators that start with each byte, in puncts'
// order: the lexer tries only those.
var punctsBy = func() (by [256][]string) {
	for _, p := range puncts {
		by[p[0]] = append(by[p[0]], p)
	}
	return by
}()

// lexer turns source text into tokens, running the preprocessor
// (object-like #define expansion, #include recording, #pragma capture).
type lexer struct {
	src      string
	pos      int
	line     int
	col      int
	macros   map[string][]Token
	includes []string

	// macro expansion state of next
	stack     []frame         // bodies being replayed, innermost last
	expanding map[string]bool // names on the stack: a macro does not expand inside itself
	expanded  int             // body tokens replayed so far (maxExpandedTokens)
}

// frame is one macro body being replayed into the token stream; every
// replayed token takes the position of the use.
type frame struct {
	name      string
	body      []Token
	next      int
	line, col int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1, macros: map[string][]Token{}}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skipSpace consumes whitespace and comments; reports whether a newline
// was crossed (used for directive boundaries).
func (l *lexer) skipSpace(stopAtNewline bool) (newline bool, err error) {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == '\n':
			if stopAtNewline {
				return true, nil
			}
			newline = true
			l.advance()
		case c == ' ' || c == '\t' || c == '\r':
			l.advance()
		case c == '\\' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '\n':
			l.advance()
			l.advance()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos+1 < len(l.src) {
				if l.peekByte() == '*' && l.src[l.pos+1] == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return newline, errf(l.line, l.col, "unterminated block comment")
			}
		default:
			return newline, nil
		}
	}
	return newline, nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

// rawToken lexes one token without macro expansion.
func (l *lexer) rawToken() (Token, error) {
	// Directive lines are consumed in a loop, not by recursion: a file
	// may be nothing but #define lines.
	for {
		if _, err := l.skipSpace(false); err != nil {
			return Token{}, err
		}
		if l.pos >= len(l.src) || l.peekByte() != '#' {
			break
		}
		if t, err := l.directive(); err != nil || t.Kind == TPragma {
			return t, err
		}
	}
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return Token{Kind: TEOF, Line: line, Col: col}, nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentChar(l.peekByte()) {
			l.advance()
		}
		return Token{Kind: TIdent, Val: l.src[start:l.pos], Line: line, Col: col}, nil
	case c >= '0' && c <= '9':
		start := l.pos
		for l.pos < len(l.src) && (isIdentChar(l.peekByte())) {
			l.advance()
		}
		lit := l.src[start:l.pos]
		v, err := parseIntLit(lit)
		if err != nil {
			return Token{}, errf(line, col, "bad number %q", lit)
		}
		return Token{Kind: TNum, Num: v, Line: line, Col: col}, nil
	case c == '\'':
		l.advance()
		var v int64
		if l.pos >= len(l.src) {
			return Token{}, errf(line, col, "unterminated char literal")
		}
		if l.peekByte() == '\\' {
			l.advance()
			if l.pos >= len(l.src) {
				return Token{}, errf(line, col, "unterminated char literal")
			}
			switch l.advance() {
			case 'n':
				v = '\n'
			case 't':
				v = '\t'
			case '0':
				v = 0
			case '\\':
				v = '\\'
			case '\'':
				v = '\''
			default:
				return Token{}, errf(line, col, "bad escape in char literal")
			}
		} else {
			v = int64(l.advance())
		}
		if l.pos >= len(l.src) || l.peekByte() != '\'' {
			return Token{}, errf(line, col, "unterminated char literal")
		}
		l.advance()
		return Token{Kind: TNum, Num: v, Line: line, Col: col}, nil
	}
	for _, p := range punctsBy[c] {
		if strings.HasPrefix(l.src[l.pos:], p) {
			for range p {
				l.advance()
			}
			return Token{Kind: TPunct, Val: p, Line: line, Col: col}, nil
		}
	}
	return Token{}, errf(line, col, "unexpected character %q", string(c))
}

func parseIntLit(lit string) (int64, error) {
	s := lit
	base := int64(10)
	switch {
	case strings.HasPrefix(s, "0x"), strings.HasPrefix(s, "0X"):
		base, s = 16, s[2:]
	case strings.HasPrefix(s, "0b"), strings.HasPrefix(s, "0B"):
		base, s = 2, s[2:]
	case len(s) > 1 && s[0] == '0':
		base, s = 8, s[1:]
	}
	// strip u/l suffixes
	for len(s) > 0 && (s[len(s)-1] == 'u' || s[len(s)-1] == 'U' ||
		s[len(s)-1] == 'l' || s[len(s)-1] == 'L') {
		s = s[:len(s)-1]
	}
	if s == "" {
		if lit == "0" {
			return 0, nil
		}
		return 0, fmt.Errorf("empty literal")
	}
	var v int64
	for _, c := range s {
		var d int64
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, fmt.Errorf("bad digit %q", c)
		}
		if d >= base {
			return 0, fmt.Errorf("digit out of base")
		}
		v = v*base + d
	}
	return v, nil
}

// directive handles a '#' line: include, define, pragma, ifdef-free
// subset. Only #pragma leaves a token; the others return the zero Token.
func (l *lexer) directive() (Token, error) {
	line, col := l.line, l.col
	l.advance() // '#'
	if _, err := l.skipSpace(true); err != nil {
		return Token{}, err
	}
	start := l.pos
	for l.pos < len(l.src) && isIdentChar(l.peekByte()) {
		l.advance()
	}
	name := l.src[start:l.pos]
	restStart := l.pos
	for l.pos < len(l.src) && l.peekByte() != '\n' {
		if l.peekByte() == '\\' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '\n' {
			l.advance()
		}
		l.advance()
	}
	rest := strings.TrimSpace(l.src[restStart:l.pos])
	switch name {
	case "include":
		l.includes = append(l.includes, strings.Trim(rest, "<>\" "))
		return Token{}, nil
	case "pragma":
		return Token{Kind: TPragma, Val: rest, Line: line, Col: col}, nil
	case "define":
		return Token{}, l.define(rest, line)
	default:
		return Token{}, errf(line, col, "unsupported preprocessor directive #%s", name)
	}
}

// define registers an object-like macro.
func (l *lexer) define(rest string, line int) error {
	i := 0
	for i < len(rest) && isIdentChar(rest[i]) {
		i++
	}
	name := rest[:i]
	if name == "" {
		return errf(line, 1, "#define without a name")
	}
	if i < len(rest) && rest[i] == '(' {
		return errf(line, 1, "function-like macro %q is not supported", name)
	}
	body := strings.TrimSpace(rest[i:])
	sub := newLexer(body)
	var toks []Token
	for {
		t, err := sub.rawToken()
		if err != nil {
			return errf(line, 1, "in #define %s: %v", name, err)
		}
		if t.Kind == TEOF {
			break
		}
		t.Line = line
		toks = append(toks, t)
	}
	l.macros[name] = toks
	return nil
}

// Bounds on what a source may make the front end do, so that hostile
// text (POST /jobs takes MiniC from anyone) gets an *Error with its line
// instead of the process's stack or heap. Each is more than 100 times
// what any program in this repository reaches: over the package tests,
// the examples, the figures and 300-program determinism-fuzzer
// campaigns, 169 expanded tokens, 59 levels and macros nested 3 deep.
const (
	// maxExpandedTokens bounds the tokens macro expansion may produce
	// in one translation unit: object-like macros that mention each
	// other twice double the output per level.
	maxExpandedTokens = 1 << 16
	// maxDepth bounds the depth of the tree the parser builds — nested
	// parentheses, unary chains, blocks, and the left-deep chains of
	// binary and postfix operators, which cost the parser no stack but
	// cost every recursive pass after it — and the nesting of macro
	// expansion. 8192 nested parentheses are about 8 MiB of parser
	// stack.
	maxDepth = 1 << 13
)

// next returns the next token of the macro-expanded stream. The parser
// pulls tokens as it needs them, so a source it refuses is not
// tokenized, or expanded, beyond the point of refusal.
func (l *lexer) next() (Token, error) {
	for {
		var t Token
		if n := len(l.stack); n > 0 {
			f := &l.stack[n-1]
			if f.next == len(f.body) {
				l.expanding[f.name] = false
				l.stack = l.stack[:n-1]
				continue
			}
			t = f.body[f.next]
			t.Line, t.Col = f.line, f.col
			f.next++
		} else {
			var err error
			if t, err = l.rawToken(); err != nil {
				return Token{}, err
			}
		}
		if t.Kind != TIdent || l.expanding[t.Val] {
			return t, nil
		}
		body, isMacro := l.macros[t.Val]
		if !isMacro {
			return t, nil
		}
		l.expanded += len(body)
		if len(l.stack) == maxDepth || l.expanded > maxExpandedTokens {
			return Token{}, errf(t.Line, t.Col, "expansion of macro %q exceeds %d tokens or %d levels",
				t.Val, maxExpandedTokens, maxDepth)
		}
		if l.expanding == nil {
			l.expanding = map[string]bool{}
		}
		l.expanding[t.Val] = true
		l.stack = append(l.stack, frame{name: t.Val, body: body, line: t.Line, col: t.Col})
	}
}

// Lex tokenizes the whole source with macro expansion.
func Lex(src string) ([]Token, []string, error) {
	l := newLexer(src)
	var out []Token
	for {
		t, err := l.next()
		if err != nil {
			return nil, nil, err
		}
		out = append(out, t)
		if t.Kind == TEOF {
			return out, l.includes, nil
		}
	}
}
