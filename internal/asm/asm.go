// Package asm implements the assembler for the RV32IM + X_PAR
// instruction set of the LBP processor.
//
// The accepted syntax is the usual RISC-V assembler syntax plus the X_PAR
// mnemonics of Figure 5 of the paper, a handful of directives (.text,
// .data, .word, .space, .fill, .align, .org, .equ, .global) and the common
// pseudo-instructions (li, la, mv, j, jr, call, ret, nop, p_ret, branches
// against zero, ...).
//
// A source is parsed once, line by line, into a statement list (parse:
// comments, labels, the mnemonic's form, registers, directive arguments);
// layout walks the list to give every statement its size and every label
// its address; encode walks it again, now that every symbol is known, to
// evaluate the operand expressions and emit words. What an instruction
// looks like — mnemonic, operand order, which operand is which field —
// comes from internal/isa's instruction table through the forms table of
// inst.go; nothing else in the package names an instruction.
//
// Programs are assembled into a Program: a text image based at TextBase
// and a list of initialized data segments in the shared address space.
package asm

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
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

// MaxWords bounds the words (text plus data) one program may emit:
// 64 MiB, the whole default shared space of a 1024-core machine. A
// directive names its size in a few bytes of source (.space, .fill,
// .align), so layout refuses a larger program before anything is
// allocated for it.
const MaxWords = 1 << 24

// Assemble assembles source into a Program: Parse, then List.Assemble.
func Assemble(source string, opt Options) (*Program, error) {
	l, err := Parse(source)
	if err != nil {
		return nil, err
	}
	return l.Assemble(opt)
}

// Assemble lays the list out and encodes it. An error names the line
// the statement has in the list's text (String). Layout writes into the
// statements, so a list is assembled once.
func (l *List) Assemble(opt Options) (*Program, error) {
	if opt.DataBase == 0 {
		opt.DataBase = DefaultDataBase
	}
	a := &assembler{
		opt:     opt,
		stmts:   l.Stmts,
		symbols: map[string]uint32{},
		equs:    map[string]int64{},
	}
	a.number()
	if err := a.layout(); err != nil {
		return nil, err
	}
	if err := a.encode(); err != nil {
		return nil, err
	}
	p := &Program{
		TextBase: opt.TextBase,
		Text:     a.text,
		Segments: a.segs,
		Symbols:  a.symbols,
		Entry:    opt.TextBase,
	}
	if e, ok := a.symbols["main"]; ok {
		p.Entry = e
	}
	return p, nil
}

// A Stmt is one statement: a label, an instruction, a directive that
// sizes, places or emits something, or text that renders as itself.
type Stmt struct {
	line  int
	n     uint32 // set by layout: the words the statement emits
	kind  stmtKind
	data  bool     // stands in the .data section
	built bool     // made by a List method: an argument without text has its value already
	form  *Form    // stInst
	In    isa.Inst // stInst: the form's fixed fields and the operand registers
	// arg is the label's name, the instruction's expression operand ("" if
	// it has none, or once its value is in val), the directive's argument
	// text or the verbatim text; arg2 is the value of .equ and .fill.
	arg, arg2 string
	// val and val2 are the values of arg and arg2: given by the builder, or
	// set by layout where the value must be known where the statement
	// stands (.equ, .fill, .org, a li of a known value). A verbatim
	// statement's val counts the statements after it that its text covers.
	val, val2 int64
}

// Form returns the spelling of an instruction statement, nil for any
// other statement.
func (st *Stmt) Form() *Form { return st.form }

type stmtKind uint8

const (
	stLabel stmtKind = iota
	stInst
	stVerbatim
	stIgnored // directives accepted and ignored
	stText    // parse stamps each statement with its section and keeps neither
	stData
	stEqu
	stOrg
	stAlign
	stWord
	stSpace
	stFill
)

var directives = map[string]stmtKind{
	".text": stText, ".data": stData,
	".global": stIgnored, ".globl": stIgnored, ".type": stIgnored, ".size": stIgnored, ".file": stIgnored,
	".ident": stIgnored, ".section": stIgnored, ".option": stIgnored, ".attribute": stIgnored,
	".equ": stEqu, ".set": stEqu, ".org": stOrg, ".align": stAlign,
	".word": stWord, ".space": stSpace, ".zero": stSpace, ".fill": stFill,
}

type assembler struct {
	opt     Options
	stmts   []Stmt
	symbols map[string]uint32
	equs    map[string]int64
	undef   string // the symbol behind the last errUndefined

	// encode's output and cursor
	text   []uint32
	segs   []Segment
	dloc   uint32 // data location counter
	newSeg bool   // the next data word opens a segment (first word, or after .org)
}

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse turns the source into a list that renders as the source: one
// verbatim statement holding the text, covering the statements read from
// it. Everything that needs no symbol value is checked here: mnemonics,
// operand counts and shapes, register names, directive names and
// argument counts, the section a statement stands in.
func Parse(source string) (*List, error) {
	lines := strings.Count(source, "\n") + 1
	stmts := make([]Stmt, 1, 1+lines+lines/4)
	stmts[0] = Stmt{kind: stVerbatim, arg: source}
	inData := false
	for num, more := 1, true; more; num++ {
		var text string
		text, source, more = strings.Cut(source, "\n")
		text = strings.TrimSpace(stripComment(text))
		// Labels (possibly several on one line).
		for {
			idx := strings.IndexByte(text, ':')
			if idx < 0 {
				break
			}
			name := strings.TrimSpace(text[:idx])
			if !isIdent(name) {
				break
			}
			stmts = append(stmts, Stmt{line: num, kind: stLabel, data: inData, arg: name})
			text = strings.TrimSpace(text[idx+1:])
		}
		if text == "" {
			continue
		}
		name, rest, _ := strings.Cut(text, " ")
		rest = strings.TrimSpace(rest)
		st := Stmt{line: num, data: inData}
		if text[0] != '.' {
			if inData {
				return nil, errf(num, "instruction %q in .data section", text)
			}
			if err := parseInst(&st, name, rest); err != nil {
				return nil, err
			}
			stmts = append(stmts, st)
			continue
		}
		kind, ok := directives[name]
		if !ok {
			return nil, errf(num, "unknown directive %q", name)
		}
		st.kind, st.arg = kind, rest
		switch kind {
		case stText, stData:
			inData = kind == stData
			continue
		case stIgnored:
			continue
		case stEqu:
			if st.arg, st.arg2, ok = cutOperand(rest); !ok {
				return nil, errf(num, ".equ wants name, value")
			}
		case stFill:
			if countOperands(rest) != 2 {
				return nil, errf(num, ".fill wants count, value")
			}
			st.arg, st.arg2, _ = cutOperand(rest)
		case stOrg, stWord:
			if !inData {
				return nil, errf(num, "%s only supported in .data", name)
			}
		}
		stmts = append(stmts, st)
	}
	stmts[0].val = int64(len(stmts) - 1)
	return &List{Stmts: stmts}, nil
}

// number gives every statement the line it has in the list's text. A
// statement is one line; one that verbatim text covers keeps its line
// within that text.
func (a *assembler) number() {
	line := 1
	for i := 0; i < len(a.stmts); i++ {
		st := &a.stmts[i]
		if st.kind != stVerbatim {
			st.line = line
			line++
			continue
		}
		for j := i + 1; line > 1 && j <= i+int(st.val); j++ {
			a.stmts[j].line += line - 1
		}
		i += int(st.val)
		line += strings.Count(st.arg, "\n")
	}
}

// value is a directive argument's value where the statement stands: the
// builder's, or that of its text, every symbol of which is defined by now.
func (a *assembler) value(st *Stmt, expr string, built int64) (int64, error) {
	if st.built && expr == "" {
		return built, nil
	}
	return a.evalNow(st.line, expr)
}

// layout gives every statement its size and every label its address,
// and defines the .equ names; a directive's size, address or value must
// be known where it stands. It allocates nothing per emitted word: a
// program over MaxWords, or one that runs off the end of the address
// space, is refused here.
func (a *assembler) layout() error {
	// 64-bit location counters, so that running past 2^32 shows.
	pc, dloc := uint64(a.opt.TextBase), uint64(a.opt.DataBase)
	var words uint32
	for i := range a.stmts {
		st := &a.stmts[i]
		loc := &dloc // what the statement's words advance
		switch st.kind {
		case stLabel:
			if _, dup := a.symbols[st.arg]; dup {
				return errf(st.line, "duplicate label %q", st.arg)
			}
			addr := pc
			if st.data {
				addr = dloc
			}
			a.symbols[st.arg] = uint32(addr)
		case stInst:
			loc, st.n = &pc, 1
			if wide := st.form.imm; wide == 'l' || wide == 'a' {
				// li is one addi when its value is known here and fits;
				// la, and any forward reference, is always lui+addi.
				v, err := st.val, error(nil)
				if st.arg != "" {
					v, err = a.eval(st.line, st.arg)
				}
				switch {
				case err == errUndefined:
					st.n = 2
				case err != nil:
					return err
				default:
					st.arg, st.val = "", v
					if wide == 'a' || v < -2048 || v > 2047 {
						st.n = 2
					}
				}
			}
		case stEqu:
			v, err := a.evalNow(st.line, st.arg2)
			if err != nil {
				return err
			}
			st.val2, a.equs[st.arg] = v, v
		case stOrg:
			v, err := a.value(st, st.arg, st.val)
			if err != nil {
				return err
			}
			st.val, dloc = v, uint64(uint32(v))
		case stAlign:
			v, err := a.value(st, st.arg, st.val)
			if err != nil {
				return err
			}
			if v < 0 || v > 31 {
				return errf(st.line, ".align %d: want an exponent from 0 to 31 (the alignment is 2^n bytes)", v)
			}
			if !st.data {
				loc = &pc
			}
			al := uint64(1) << uint(v)
			pad := (al - *loc%al) % al
			if pad%4 != 0 { // only a misaligned TextBase/DataBase or .org gets here
				return errf(st.line, ".align %d from the unaligned address %#x", v, *loc)
			}
			st.n = uint32(pad / 4)
		case stWord:
			if st.n = 1; !st.built {
				st.n = uint32(countOperands(st.arg))
			}
		case stSpace, stFill:
			v, err := a.value(st, st.arg, st.val)
			if err != nil {
				return err
			}
			if v < 0 {
				return errf(st.line, "negative count %d", v)
			}
			if st.kind == stSpace {
				if v%4 != 0 {
					return errf(st.line, ".space must be a multiple of 4 bytes")
				}
				v /= 4
			} else if st.val2, err = a.value(st, st.arg2, st.val2); err != nil {
				return err
			}
			if v > MaxWords {
				v = MaxWords + 1
			}
			st.n = uint32(v)
		}
		if st.n > MaxWords-words {
			return errf(st.line, "program larger than %d words", MaxWords)
		}
		words += st.n
		if *loc += 4 * uint64(st.n); *loc > 1<<32 {
			return errf(st.line, "location counter runs past the end of the address space")
		}
	}
	a.text = make([]uint32, 0, (pc-uint64(a.opt.TextBase))/4)
	return nil
}

// encode emits the words. Every label is defined by now; an .equ name
// has, at each line, the value the lines above gave it (or, above its
// first definition, its last).
func (a *assembler) encode() error {
	a.dloc, a.newSeg = a.opt.DataBase, true
	for i := range a.stmts {
		st := &a.stmts[i]
		switch st.kind {
		case stInst:
			if err := a.encodeInst(st); err != nil {
				return err
			}
		case stEqu:
			a.equs[st.arg] = st.val2
		case stOrg:
			a.dloc, a.newSeg = uint32(st.val), true
		case stAlign:
			if st.data {
				a.data(st.n)
				continue
			}
			for n := st.n; n > 0; n-- {
				a.text = append(a.text, 0x00000013) // nop
			}
		case stWord:
			words := a.data(st.n)
			if st.built {
				words[0] = uint32(st.val)
				continue
			}
			for i, rest := 0, st.arg; i < len(words); i++ {
				var opnd string
				opnd, rest, _ = cutOperand(rest)
				v, err := a.evalNow(st.line, opnd)
				if err != nil {
					return err
				}
				words[i] = uint32(v)
			}
		case stSpace:
			a.data(st.n)
		case stFill:
			words := a.data(st.n)
			for i := range words {
				words[i] = uint32(st.val2)
			}
		}
	}
	return nil
}

// data appends n zero words at the data location counter — to the
// current segment, or to a new one when none is open there — and
// returns them for the caller to fill.
func (a *assembler) data(n uint32) []uint32 {
	if n == 0 {
		return nil
	}
	if a.newSeg {
		a.segs = append(a.segs, Segment{Addr: a.dloc})
		a.newSeg = false
	}
	seg := &a.segs[len(a.segs)-1]
	start := len(seg.Words)
	seg.Words = append(seg.Words, make([]uint32, n)...)
	a.dloc += 4 * n
	return seg.Words[start:]
}

// stripComment cuts the line at the first '#', ';' or "//" that is not
// inside a char literal.
func stripComment(l string) string {
	for i := 0; i < len(l); i++ {
		switch l[i] {
		case '#', ';':
			return l[:i]
		case '/':
			if i+1 < len(l) && l[i+1] == '/' {
				return l[:i]
			}
		case '\'':
			i = skipCharLit(l, i) - 1
		}
	}
	return l
}

// skipCharLit returns the index just past the char literal ('x' or
// '\x') whose opening quote is s[i], or i+1 when the quote opens none.
func skipCharLit(s string, i int) int {
	end := i + 2
	if end < len(s) && s[i+1] == '\\' {
		end++
	}
	if end < len(s) && s[end] == '\'' {
		return end + 1
	}
	return i + 1
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

// cutOperand cuts the first operand off a comma-separated list; a comma
// inside parentheses or a char literal does not separate. more reports
// whether a comma (and so another operand, possibly empty) followed.
func cutOperand(s string) (first, rest string, more bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case '\'':
			i = skipCharLit(s, i) - 1
		case ',':
			if depth == 0 {
				return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:]), true
			}
		}
	}
	return strings.TrimSpace(s), "", false
}

// countOperands counts the operands of a trimmed operand list.
func countOperands(s string) int {
	if s == "" {
		return 0
	}
	for n := 1; ; n++ {
		var more bool
		if _, s, more = cutOperand(s); !more {
			return n
		}
	}
}
