package cc

import (
	"slices"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Peephole optimization of the emitted body lines. Two conservative local
// rewrites remove the register-shuffling `mv` instructions the stack-based
// expression evaluator produces, bringing hot-loop instruction counts
// close to the paper's hand-counted kernels:
//
//  1. forward copy propagation:  "mv X, Y" followed (within a branchless
//     window in which Y is not redefined) by instructions reading X, the
//     last of which overwrites X -> the reads become reads of Y and the
//     mv disappears.
//  2. backward copy elimination: "op X, ..." directly followed by
//     "mv D, X" where X is dead afterwards -> "op D, ...".
//
// Both run only on straight-line code: any label or control transfer ends
// the analysis window.
//
// What an instruction writes, what it reads and whether it transfers
// control is not stated here: parseLine asks the assembler's forms table
// (asm.Operands, itself built from internal/isa's instruction table) for
// the role of each operand of the line's mnemonic.

// instLine is a parsed assembly line.
type instLine struct {
	raw string
	mn  string   // "" for a label, directive, comment or blank line
	ops []string // operands; a memory operand off(base) is held as off, base in memB
	// shape has one letter per operand: d is written; 1, 2 and a bare M
	// are read; m and M with a base are the offset of memB; the others
	// name no register. It is "" for a line the assembler would refuse,
	// whose every operand then counts as read.
	shape   isa.Shape
	memB    string // base register of the memory operand, "" if none
	barrier bool   // ends a peephole window
}

func parseLine(l string) instLine {
	t := strings.TrimSpace(l)
	il := instLine{raw: l}
	if t == "" || strings.HasSuffix(t, ":") || strings.HasPrefix(t, ".") ||
		strings.HasPrefix(t, "#") {
		return il
	}
	mn, rest, _ := strings.Cut(t, " ")
	il.mn = mn
	for more := rest != ""; more; {
		var f string
		f, rest, more = strings.Cut(rest, ",")
		if f = strings.TrimSpace(f); f != "" {
			il.ops = append(il.ops, f)
		}
	}
	op, shape, ok := asm.Operands(mn, len(il.ops))
	if !ok {
		il.barrier = true
		return il
	}
	if shape == "b" { // "p_set X" is "p_set X, X"
		shape, il.ops = "d1", append(il.ops, il.ops[0])
	}
	il.shape = shape
	if i := strings.IndexAny(shape, "mM"); i >= 0 {
		f := il.ops[i]
		if open := strings.IndexByte(f, '('); open >= 0 && strings.HasSuffix(f, ")") {
			il.ops[i], il.memB = f[:open], f[open+1:len(f)-1]
		}
	}
	switch isa.ClassOf(op) {
	case isa.ClassBranch, isa.ClassJump:
		il.barrier = true
	}
	// The optimizer's own choice, not a fact of the instruction set:
	// these also end a window.
	switch op {
	case isa.OpECALL, isa.OpEBREAK, isa.OpPSYNCM:
		il.barrier = true
	}
	return il
}

// destOf returns the destination register of a line ("" if none).
func (il *instLine) destOf() string {
	if il.shape != "" && il.shape[0] == 'd' {
		return il.ops[0]
	}
	return ""
}

// reads reports whether operand i is a register the line reads.
func (il *instLine) reads(i int) bool {
	if i >= len(il.shape) {
		return true
	}
	switch il.shape[i] {
	case '1', '2':
		return true
	case 'M':
		return il.memB == ""
	}
	return false
}

// usesReg reports whether the line reads register r.
func (il *instLine) usesReg(r string) bool {
	if il.memB == r {
		return true
	}
	for i, o := range il.ops {
		if o == r && il.reads(i) {
			return true
		}
	}
	return false
}

// render writes the line back with the given operands and base register.
func (il *instLine) render(ops []string, memB string) string {
	var b strings.Builder
	b.WriteString("\t" + il.mn + " ")
	for i, o := range ops {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(o)
		if memB != "" && (il.shape[i] == 'm' || il.shape[i] == 'M') {
			b.WriteString("(" + memB + ")")
		}
	}
	return b.String()
}

// substReg replaces reads of `from` with `to`, returning the new raw line.
func (il *instLine) substReg(from, to string) string {
	ops, memB := slices.Clone(il.ops), il.memB
	for i, o := range ops {
		if o == from && il.reads(i) {
			ops[i] = to
		}
	}
	if memB == from {
		memB = to
	}
	return il.render(ops, memB)
}

// substDest rewrites the destination register of the line.
func (il *instLine) substDest(to string) string {
	ops := slices.Clone(il.ops)
	ops[0] = to
	return il.render(ops, il.memB)
}

const peepholeWindow = 16

// isTempReg reports whether r is an expression temp (single-use values).
func isTempReg(r string) bool {
	for _, t := range tempRegs {
		if t == r {
			return true
		}
	}
	return r == scratch
}

// peephole applies the two rewrites until a fixed point (bounded).
func peephole(lines []string) []string {
	for pass := 0; pass < 4; pass++ {
		changed := false
		lines, changed = peepholeOnce(lines)
		if !changed {
			return lines
		}
	}
	return lines
}

func peepholeOnce(lines []string) ([]string, bool) {
	parsed := make([]instLine, len(lines))
	for i, l := range lines {
		parsed[i] = parseLine(l)
	}
	changed := false
	var out []string
	for i := 0; i < len(lines); i++ {
		il := parsed[i]
		// rewrite 1: forward copy propagation of "mv X, Y"
		if il.mn == "mv" && len(il.ops) == 2 && isTempReg(il.ops[0]) {
			x, y := il.ops[0], il.ops[1]
			if newLines, ok := tryForwardProp(parsed, i, x, y); ok {
				out = append(out, newLines...)
				i += len(newLines) // consumed i+1 .. i+len(newLines)
				changed = true
				continue
			}
		}
		// rewrite 2: "op X, ..." ; "mv D, X" with X dead after
		if d := il.destOf(); d != "" && isTempReg(d) && i+1 < len(lines) {
			nx := parsed[i+1]
			// sources are read before the destination is written, so the
			// destination may alias a source of il. A statement boundary
			// only proves d dead when the copy lands outside the temp set
			// (temp-to-temp copies — dupTop — keep d live as a stack entry).
			if nx.mn == "mv" && len(nx.ops) == 2 && nx.ops[1] == d && nx.ops[0] != d &&
				deadAfter(parsed, i+2, d, !isTempReg(nx.ops[0])) {
				out = append(out, il.substDest(nx.ops[0]))
				i++ // skip the mv
				changed = true
				continue
			}
		}
		out = append(out, lines[i])
	}
	return out, changed
}

// deadAfter reports whether temp register r is dead in the window
// starting at index i. When allowBoundary is set, a label or control
// transfer (after its own register reads) counts as death — valid only
// when the caller knows r cannot be a live expression-stack entry there.
func deadAfter(parsed []instLine, i int, r string, allowBoundary bool) bool {
	for j := i; j < len(parsed) && j < i+peepholeWindow; j++ {
		il := parsed[j]
		if il.usesReg(r) {
			return false // branches and calls read their sources first
		}
		if il.mn == "" || il.barrier {
			return allowBoundary
		}
		if il.destOf() == r {
			return true
		}
	}
	return false
}

// tryForwardProp attempts rewrite 1 at the mv on index i. On success it
// returns the replacement lines covering indexes i..end (mv removed).
func tryForwardProp(parsed []instLine, i int, x, y string) ([]string, bool) {
	var repl []string
	for j := i + 1; j < len(parsed) && j <= i+peepholeWindow; j++ {
		il := parsed[j]
		line := il.raw
		if il.usesReg(x) {
			line = il.substReg(x, y)
		}
		if il.mn == "" {
			return nil, false // label: conservative (x may be live-in there)
		}
		if il.barrier {
			if !il.usesReg(x) {
				// x may carry a live value across the transfer (the
				// ?:/&&/|| value patterns do exactly that): keep the copy
				return nil, false
			}
			// the control instruction consumes x (substituted above); a
			// consumed temp is dead past its branch
			repl = append(repl, line)
			return repl, true
		}
		repl = append(repl, line)
		if il.destOf() == x {
			return repl, true // x redefined: the copy is fully propagated
		}
		if il.destOf() == y {
			return nil, false // y changes while x still live
		}
	}
	return nil, false
}
