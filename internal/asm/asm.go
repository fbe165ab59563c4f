// Package asm implements a two-pass assembler for the RV32IM + X_PAR
// instruction set of the LBP processor.
//
// The accepted syntax is the usual RISC-V assembler syntax plus the X_PAR
// mnemonics of Figure 5 of the paper, a handful of directives (.text,
// .data, .word, .space, .fill, .align, .org, .equ, .global) and the common
// pseudo-instructions (li, la, mv, j, jr, call, ret, nop, p_ret, branches
// against zero, ...).
//
// Programs are assembled into a Program: a text image based at TextBase
// and a list of initialized data segments in the shared address space.
package asm

import (
	"fmt"
	"sort"
	"strings"
)

// Segment is a contiguous initialized region of the data space.
type Segment struct {
	Addr  uint32
	Words []uint32
}

// Program is the output of the assembler.
type Program struct {
	TextBase uint32
	Text     []uint32 // encoded instructions
	Segments []Segment
	Symbols  map[string]uint32
	Entry    uint32 // address of the "main" symbol (or TextBase)
}

// SymbolsSorted returns symbol names in deterministic order.
func (p *Program) SymbolsSorted() []string {
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Error is an assembly error with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Options configure the assembler.
type Options struct {
	TextBase uint32 // base address of the text image (default 0)
	DataBase uint32 // base address of the .data section (default 0x80000000)
}

// DefaultDataBase is the beginning of the shared global address space.
const DefaultDataBase = 0x80000000

// Assemble assembles source into a Program.
func Assemble(source string, opt Options) (*Program, error) {
	if opt.DataBase == 0 {
		opt.DataBase = DefaultDataBase
	}
	a := &assembler{
		opt:     opt,
		symbols: map[string]uint32{},
		equs:    map[string]int64{},
	}
	lines := splitLines(source)
	if err := a.pass(lines, 1); err != nil {
		return nil, err
	}
	a.reset()
	if err := a.pass(lines, 2); err != nil {
		return nil, err
	}
	p := &Program{
		TextBase: opt.TextBase,
		Text:     a.text,
		Segments: a.closeSegments(),
		Symbols:  a.symbols,
	}
	if e, ok := a.symbols["main"]; ok {
		p.Entry = e
	} else {
		p.Entry = opt.TextBase
	}
	return p, nil
}

type line struct {
	num  int
	text string
}

func splitLines(src string) []line {
	raw := strings.Split(src, "\n")
	out := make([]line, 0, len(raw))
	for i, l := range raw {
		// strip comments: '#' and '//' and ';'
		if idx := strings.IndexAny(l, "#;"); idx >= 0 {
			l = l[:idx]
		}
		if idx := strings.Index(l, "//"); idx >= 0 {
			l = l[:idx]
		}
		l = strings.TrimSpace(l)
		out = append(out, line{num: i + 1, text: l})
	}
	return out
}

type assembler struct {
	opt     Options
	pass2   bool
	pc      uint32 // text location counter
	dloc    uint32 // data location counter
	inData  bool
	symbols map[string]uint32
	equs    map[string]int64
	text    []uint32
	segs    []Segment
	curSeg  *Segment
	liSize  map[int]int // line -> instruction count decided in pass 1
}

func (a *assembler) reset() {
	a.pc = a.opt.TextBase
	a.dloc = a.opt.DataBase
	a.inData = false
	a.text = nil
	a.segs = nil
	a.curSeg = nil
	a.pass2 = true
}

func (a *assembler) pass(lines []line, n int) error {
	a.pc = a.opt.TextBase
	a.dloc = a.opt.DataBase
	if n == 1 {
		a.liSize = map[int]int{}
	}
	for _, l := range lines {
		if l.text == "" {
			continue
		}
		if err := a.doLine(l); err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) errf(l line, format string, args ...any) error {
	return &Error{Line: l.num, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) doLine(l line) error {
	text := l.text
	// Labels (possibly several on one line).
	for {
		idx := strings.Index(text, ":")
		if idx < 0 {
			break
		}
		name := strings.TrimSpace(text[:idx])
		if !isIdent(name) {
			break
		}
		if !a.pass2 {
			if _, dup := a.symbols[name]; dup {
				return a.errf(l, "duplicate label %q", name)
			}
			if a.inData {
				a.symbols[name] = a.dloc
			} else {
				a.symbols[name] = a.pc
			}
		}
		text = strings.TrimSpace(text[idx+1:])
	}
	if text == "" {
		return nil
	}
	if strings.HasPrefix(text, ".") {
		return a.doDirective(l, text)
	}
	if a.inData {
		return a.errf(l, "instruction %q in .data section", text)
	}
	return a.doInst(l, text)
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.', c == '$':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (a *assembler) doDirective(l line, text string) error {
	name, rest, _ := strings.Cut(text, " ")
	rest = strings.TrimSpace(rest)
	switch name {
	case ".text":
		a.inData = false
	case ".data":
		a.inData = true
	case ".global", ".globl", ".type", ".size", ".file", ".ident", ".section", ".option", ".attribute":
		// accepted and ignored
	case ".equ", ".set":
		parts := strings.SplitN(rest, ",", 2)
		if len(parts) != 2 {
			return a.errf(l, ".equ wants name, value")
		}
		nm := strings.TrimSpace(parts[0])
		v, err := a.eval(l, strings.TrimSpace(parts[1]))
		if err != nil {
			return err
		}
		a.equs[nm] = v
	case ".org":
		v, err := a.eval(l, rest)
		if err != nil {
			return err
		}
		if !a.inData {
			return a.errf(l, ".org only supported in .data")
		}
		a.dloc = uint32(v)
		a.curSeg = nil
	case ".align":
		v, err := a.eval(l, rest)
		if err != nil {
			return err
		}
		al := uint32(1) << uint(v)
		if a.inData {
			for a.dloc%al != 0 {
				a.emitDataWordPadding()
			}
		} else {
			for a.pc%al != 0 {
				a.emitText(0x00000013) // nop
			}
		}
	case ".word":
		if !a.inData {
			return a.errf(l, ".word only supported in .data")
		}
		for _, f := range splitOperands(rest) {
			v, err := a.evalInst(l, f)
			if err != nil {
				return err
			}
			a.emitDataWord(uint32(v))
		}
	case ".space", ".zero":
		v, err := a.eval(l, rest)
		if err != nil {
			return err
		}
		if v%4 != 0 {
			return a.errf(l, ".space must be a multiple of 4 bytes")
		}
		for i := int64(0); i < v; i += 4 {
			a.emitDataWord(0)
		}
	case ".fill":
		parts := splitOperands(rest)
		if len(parts) != 2 {
			return a.errf(l, ".fill wants count, value")
		}
		cnt, err := a.eval(l, parts[0])
		if err != nil {
			return err
		}
		val, err := a.eval(l, parts[1])
		if err != nil {
			return err
		}
		for i := int64(0); i < cnt; i++ {
			a.emitDataWord(uint32(val))
		}
	default:
		return a.errf(l, "unknown directive %q", name)
	}
	return nil
}

func (a *assembler) emitText(word uint32) {
	if a.pass2 {
		a.text = append(a.text, word)
	}
	a.pc += 4
}

func (a *assembler) emitDataWord(w uint32) {
	if a.pass2 {
		if a.curSeg == nil || a.curSeg.Addr+uint32(4*len(a.curSeg.Words)) != a.dloc {
			a.segs = append(a.segs, Segment{Addr: a.dloc})
			a.curSeg = &a.segs[len(a.segs)-1]
		}
		a.curSeg.Words = append(a.curSeg.Words, w)
		// re-take the pointer: append may have grown a.segs
		a.curSeg = &a.segs[len(a.segs)-1]
	}
	a.dloc += 4
}

func (a *assembler) emitDataWordPadding() { a.emitDataWord(0) }

func (a *assembler) closeSegments() []Segment {
	return a.segs
}

// splitOperands splits on commas that are not inside parentheses.
func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i, c := range s {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last != "" || len(out) > 0 {
		out = append(out, last)
	}
	return out
}
