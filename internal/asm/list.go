package asm

import (
	"strconv"

	"repro/internal/isa"
)

// A List is a program as statements: what Parse makes of a text, and
// what a code generator builds with the methods below instead of
// writing that text. A built list and its text (String) assemble to the
// same program or the same error.
type List struct {
	Stmts []Stmt
	data  bool // the section the next built statement stands in
}

func (l *List) add(st Stmt) {
	st.built, st.data = true, l.data
	l.Stmts = append(l.Stmts, st)
}

// Inst appends the instruction f. regs are its register operands in
// source order; its expression operand, if it takes one, is sym, or imm
// when sym is "".
func (l *List) Inst(f *Form, imm int64, sym string, regs ...uint8) {
	st := Stmt{kind: stInst, form: f, In: f.fix, arg: sym, val: imm}
	for i := 0; i < len(f.shape); i++ {
		if k := f.shape[i]; k != f.imm || k == 'm' || k == 'M' { // not the bare expression operand
			setReg(&st.In, k, regs[0])
			regs = regs[1:]
		}
	}
	l.add(st)
}

// Label defines name where the list stands; Text, Data, Word, Space,
// Fill and Org append the directive of that name.
func (l *List) Label(name string)   { l.add(Stmt{kind: stLabel, arg: name}) }
func (l *List) Text()               { l.data = false; l.add(Stmt{kind: stText}) }
func (l *List) Data()               { l.data = true; l.add(Stmt{kind: stData}) }
func (l *List) Word(v int64)        { l.add(Stmt{kind: stWord, val: v}) }
func (l *List) Space(bytes int64)   { l.add(Stmt{kind: stSpace, val: bytes}) }
func (l *List) Fill(count, v int64) { l.add(Stmt{kind: stFill, val: count, val2: v}) }
func (l *List) Org(addr uint32)     { l.add(Stmt{kind: stOrg, val: int64(addr)}) }

// Verbatim appends lines that render as they are and assemble to
// nothing: comments, blank lines. text ends in a newline.
func (l *List) Verbatim(text string) { l.add(Stmt{kind: stVerbatim, arg: text}) }

// Append copies m's statements to the end of l: a list kept to be
// appended many times (a parsed runtime) is never itself assembled.
func (l *List) Append(m *List) { l.Stmts = append(l.Stmts, m.Stmts...) }

// String renders the list as assembly text, a line per statement.
func (l *List) String() string {
	b := make([]byte, 0, 20*len(l.Stmts))
	for i := 0; i < len(l.Stmts); i++ {
		st := &l.Stmts[i]
		if st.kind == stVerbatim {
			b = append(b, st.arg...)
			i += int(st.val)
			continue
		}
		b = append(st.appendText(b), '\n')
	}
	return string(b)
}

var directiveName = [...]string{stText: ".text", stData: ".data", stEqu: ".equ", stOrg: ".org",
	stAlign: ".align", stWord: ".word", stSpace: ".space", stFill: ".fill"}

func (st *Stmt) appendText(b []byte) []byte {
	switch st.kind {
	case stLabel:
		return append(append(b, st.arg...), ':')
	case stInst:
	default:
		b = append(append(b, '\t'), directiveName[st.kind]...)
		if st.kind > stData {
			b = appendValue(append(b, ' '), st.arg, st.val, st.kind == stOrg)
		}
		if st.kind == stEqu || st.kind == stFill {
			b = appendValue(append(b, ", "...), st.arg2, st.val2, false)
		}
		return b
	}
	f := st.form
	b = append(append(b, '\t'), f.mn...)
	for i := 0; i < len(f.shape); i++ {
		if i == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		switch k := f.shape[i]; k {
		case 'd', 'b':
			b = append(b, isa.RegNames[st.In.Rd]...)
		case '1':
			b = append(b, isa.RegNames[st.In.Rs1]...)
		case '2':
			b = append(b, isa.RegNames[st.In.Rs2]...)
		case 'm', 'M':
			if k == 'M' && st.arg == "" && st.val == 0 {
				b = append(b, isa.RegNames[st.In.Rs1]...)
				break
			}
			b = append(appendValue(b, st.arg, st.val, false), '(')
			b = append(append(b, isa.RegNames[st.In.Rs1]...), ')')
		default:
			b = appendValue(b, st.arg, st.val, k == 'u')
		}
	}
	return b
}

// appendValue prints an argument: its text, or its value when it has
// none — addresses and upper immediates in hexadecimal.
func appendValue(b []byte, text string, v int64, hex bool) []byte {
	if text != "" {
		return append(b, text...)
	}
	if hex && v >= 0 {
		return strconv.AppendInt(append(b, "0x"...), v, 16)
	}
	return strconv.AppendInt(b, v, 10)
}
