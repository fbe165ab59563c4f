package cc

import (
	"repro/internal/asm"
	"repro/internal/isa"
)

// Peephole optimization of a function body's statements. Two
// conservative local rewrites remove the register-shuffling `mv`
// instructions the stack-based expression evaluator produces, bringing
// hot-loop instruction counts close to the paper's hand-counted kernels:
//
//  1. forward copy propagation:  "mv X, Y" followed (within a branchless
//     window in which Y is not redefined) by instructions reading X, the
//     last of which overwrites X -> the reads become reads of Y and the
//     mv disappears.
//  2. backward copy elimination: "op X, ..." directly followed by
//     "mv D, X" where X is dead afterwards -> "op D, ...".
//
// Both run only on straight-line code: any label or control transfer ends
// the analysis window, and both rewrite the statements where they stand.
//
// What an instruction writes, what it reads and whether it transfers
// control is not stated here: each operand's role is its letter in the
// shape of the statement's form, a row of the assembler's forms table
// (itself built from internal/isa's instruction table).

// inst returns the form of an instruction statement, nil for a label, a
// directive or a comment — and for the one-operand "p_set X", whose one
// register is both written and read and so cannot be renamed.
func inst(st *asm.Stmt) *asm.Form {
	if f := st.Form(); f != nil && f.Shape() != "b" {
		return f
	}
	return nil
}

// barrier reports whether the instruction ends a peephole window.
func barrier(f *asm.Form) bool {
	switch f.Op() {
	case isa.OpECALL, isa.OpEBREAK, isa.OpPSYNCM:
		return true // the optimizer's own choice, not a fact of the instruction set
	}
	c := isa.ClassOf(f.Op())
	return c == isa.ClassBranch || c == isa.ClassJump
}

// destOf returns the register the statement writes, false if none.
func destOf(st *asm.Stmt) (reg, bool) {
	if f := st.Form(); f != nil && f.Shape() != "" && (f.Shape()[0] == 'd' || f.Shape()[0] == 'b') {
		return st.In.Rd, true
	}
	return 0, false
}

// writes reports whether the statement writes register r.
func writes(st *asm.Stmt, r reg) bool {
	d, ok := destOf(st)
	return ok && d == r
}

// usesReg reports whether the statement reads register r; renameReads
// makes every such read a read of to instead.
func usesReg(st *asm.Stmt, r reg) bool { return renameReads(st, r, r) }

func renameReads(st *asm.Stmt, from, to reg) (found bool) {
	shape := st.Form().Shape()
	for i := 0; i < len(shape); i++ {
		switch shape[i] {
		case '1', 'm', 'M', 'b':
			if st.In.Rs1 == from {
				st.In.Rs1, found = to, true
			}
		case '2':
			if st.In.Rs2 == from {
				st.In.Rs2, found = to, true
			}
		}
	}
	return found
}

const peepholeWindow = 16

// isTempReg reports whether r is an expression temp (single-use values).
func isTempReg(r reg) bool {
	return r == t1 || r == t2 || t3 <= r && r <= t5 || r == scratch
}

// peephole applies the two rewrites to s until a fixed point (bounded)
// and returns how many statements are left, at the front of s.
func peephole(s []asm.Stmt) int {
	for pass := 0; pass < 4; pass++ {
		n := peepholeOnce(s)
		if n == len(s) {
			break
		}
		s = s[:n]
	}
	return len(s)
}

// peepholeOnce is one pass. Statements are kept by copying them down to
// s[:w]; a rewrite only looks ahead of i, at statements this pass has
// not touched.
func peepholeOnce(s []asm.Stmt) (w int) {
	for i := 0; i < len(s); i++ {
		st := &s[i]
		f := inst(st)
		// rewrite 1: forward copy propagation of "mv X, Y"
		if f == fMv && isTempReg(st.In.Rd) {
			if end := forwardProp(s, i, st.In.Rd, st.In.Rs1); end > 0 {
				w += copy(s[w:], s[i+1:end+1]) // the mv is gone
				i = end
				continue
			}
		}
		// rewrite 2: "op X, ..." ; "mv D, X" with X dead after
		if d, ok := destOf(st); ok && f != nil && isTempReg(d) && i+1 < len(s) {
			nx := &s[i+1]
			// sources are read before the destination is written, so the
			// destination may alias a source of st. A statement boundary
			// only proves d dead when the copy lands outside the temp set
			// (temp-to-temp copies — dupTop — keep d live as a stack entry).
			if nx.Form() == fMv && nx.In.Rs1 == d && nx.In.Rd != d &&
				deadAfter(s, i+2, d, !isTempReg(nx.In.Rd)) {
				st.In.Rd = nx.In.Rd
				s[w] = *st
				w++
				i++ // skip the mv
				continue
			}
		}
		s[w] = *st
		w++
	}
	return w
}

// deadAfter reports whether temp register r is dead in the window
// starting at index i. When allowBoundary is set, a label or control
// transfer (after its own register reads) counts as death — valid only
// when the caller knows r cannot be a live expression-stack entry there.
func deadAfter(s []asm.Stmt, i int, r reg, allowBoundary bool) bool {
	for j := i; j < len(s) && j < i+peepholeWindow; j++ {
		st := &s[j]
		f := inst(st)
		if f == nil {
			return allowBoundary
		}
		if usesReg(st, r) {
			return false // branches and calls read their sources first
		}
		if barrier(f) {
			return allowBoundary
		}
		if writes(st, r) {
			return true
		}
	}
	return false
}

// forwardProp attempts rewrite 1 at the mv x, y on index i. On success
// the reads of x in s[i+1..end] have become reads of y and it returns
// end, the last statement of the window; on failure nothing has changed
// and it returns 0.
func forwardProp(s []asm.Stmt, i int, x, y reg) (end int) {
	for j := i + 1; end == 0; j++ {
		if j >= len(s) || j > i+peepholeWindow {
			return 0
		}
		st := &s[j]
		f := inst(st)
		switch {
		case f == nil:
			return 0 // label: conservative (x may be live-in there)
		case barrier(f):
			if !usesReg(st, x) {
				// x may carry a live value across the transfer (the
				// ?:/&&/|| value patterns do exactly that): keep the copy
				return 0
			}
			// the control instruction consumes x; a consumed temp is dead
			// past its branch
			end = j
		case writes(st, x):
			end = j // x redefined: the copy is fully propagated
		case writes(st, y):
			return 0 // y changes while x still live
		}
	}
	for j := i + 1; j <= end; j++ {
		renameReads(&s[j], x, y)
	}
	return end
}
