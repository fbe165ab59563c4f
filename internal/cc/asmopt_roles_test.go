package cc

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// The optimizer's view of the instruction set as the commit before the
// one-table rewrite stated it: three hand-kept string lists, verbatim
// under a parent prefix. They are the reference the roles the peephole
// now reads off a statement's form (a row of the assembler's forms
// table) are checked against.

type parentLine struct {
	mn   string
	ops  []string
	memB string
}

func parentParseLine(l string) parentLine {
	t := strings.TrimSpace(l)
	var il parentLine
	mn, rest, _ := strings.Cut(t, " ")
	il.mn = mn
	for _, f := range strings.Split(rest, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if open := strings.IndexByte(f, '('); open >= 0 && strings.HasSuffix(f, ")") {
			il.memB = f[open+1 : len(f)-1]
			il.ops = append(il.ops, f[:open])
			continue
		}
		il.ops = append(il.ops, f)
	}
	return il
}

// control mnemonics that terminate a peephole window.
var parentControlMn = map[string]bool{
	"j": true, "jal": true, "jalr": true, "jr": true, "call": true,
	"ret": true, "p_ret": true, "p_jal": true, "p_jalr": true,
	"beq": true, "bne": true, "blt": true, "bge": true, "bltu": true,
	"bgeu": true, "bgt": true, "ble": true, "bgtu": true, "bleu": true,
	"beqz": true, "bnez": true, "bltz": true, "bgez": true, "blez": true,
	"bgtz": true, "ecall": true, "ebreak": true, "p_syncm": true,
}

// parentWritesDest reports whether the mnemonic's first operand is a
// destination register.
func parentWritesDest(mn string) bool {
	switch mn {
	case "sw", "sh", "sb", "p_swcv", "p_swre", "fence", "nop", "p_syncm":
		return false
	}
	if parentControlMn[mn] {
		return mn == "jal" || mn == "jalr" // write ra forms handled as barriers anyway
	}
	return true
}

func (il *parentLine) destOf() string {
	if il.mn == "" || !parentWritesDest(il.mn) || len(il.ops) == 0 {
		return ""
	}
	return il.ops[0]
}

func (il *parentLine) usesReg(r string) bool {
	if il.memB == r {
		return true
	}
	start := 0
	if il.destOf() != "" {
		start = 1
	}
	for i := start; i < len(il.ops); i++ {
		if il.ops[i] == r {
			return true
		}
	}
	// stores read their first operand too
	switch il.mn {
	case "sw", "sh", "sb":
		return len(il.ops) > 0 && il.ops[0] == r
	case "p_swcv", "p_swre":
		for _, o := range il.ops {
			if o == r {
				return true
			}
		}
	}
	return false
}

// The five spellings where the lists and the instruction set disagreed.
// The lists' answers were the safe ones for everything cc emits (none of
// the five, with a temp in the operand concerned); the derived answers
// are what the instruction does.
var parentListsWrong = map[string]string{
	"p_jal/3":  "writes its rd (the lists had it read: barriers' destinations were not tracked)",
	"p_jalr/3": "writes its rd (likewise)",
	"jalr/1":   "reads its one operand, the target (the lists had it written: jalr's first operand was always rd)",
	"jal/1":    "has no register operand (the lists took the label for rd)",
	"p_set/1":  "reads the register it writes (the lists had it written only)",
}

// TestAsmoptRolesMatchParentLists: for every spelling of every mnemonic
// the assembler's forms table knows (82 mnemonics; asm's TestFormsTable
// pins the count), the destination, the registers read and the
// ends-a-window answer derived from the table equal the parent lists'.
func TestAsmoptRolesMatchParentLists(t *testing.T) {
	mnemonics := strings.Fields(`nop mv not neg seqz snez li la j call jr ret bgt ble bgtu bleu
		beqz bnez bltz bgez blez bgtz p_ret`)
	for op := isa.OpInvalid + 1; op < isa.NumOps; op++ {
		mnemonics = append(mnemonics, op.String())
	}
	if len(mnemonics) != 82 {
		t.Fatalf("%d mnemonics, want 82", len(mnemonics))
	}
	operand := map[byte]string{'d': "s1", 'b': "s1", '1': "s2", '2': "s3", 'm': "8(s4)", 'M': "8(s4)",
		'i': "12", 'u': "12", 'l': "12", 'a': "12", 't': ".Ltarget"}
	spellings := 0
	for _, mn := range mnemonics {
		known := false
		for n := 0; n <= 4; n++ {
			form := asm.FormOf(mn, n)
			if form == nil {
				continue
			}
			shape := form.Shape()
			known = true
			spellings++
			var lines []string
			for _, bareM := range []bool{false, true} {
				var ops []string
				for i := range shape {
					ops = append(ops, operand[shape[i]])
					if shape[i] == 'M' && bareM {
						ops[i] = "s4"
					}
				}
				lines = append(lines, "\t"+mn+" "+strings.Join(ops, ", "))
			}
			for _, line := range lines {
				l, err := asm.Parse(line)
				if err != nil {
					t.Fatalf("%q: %v", line, err)
				}
				st, old := &l.Stmts[1], parentParseLine(line)
				if st.Form() != form || (inst(st) == nil) != (shape == "b") {
					t.Fatalf("%q: parsed to form %+v, inst %v", line, st.Form(), inst(st))
				}
				dest := ""
				if d, ok := destOf(st); ok {
					dest = isa.RegNames[d]
				}
				same := barrier(form) == parentControlMn[mn] && dest == old.destOf()
				for _, name := range []string{"s1", "s2", "s3", "s4"} {
					r, _ := isa.RegByName(name)
					same = same && usesReg(st, r) == old.usesReg(name)
				}
				key := mn + "/" + string(rune('0'+n))
				if why, wrong := parentListsWrong[key]; wrong == same {
					t.Errorf("%q: derived roles equal the parent lists': %v, listed as differing: %v (%s)\n derived: dest %q barrier %v shape %q\n parent:  dest %q barrier %v",
						line, same, wrong, why, dest, barrier(form), shape, old.destOf(), parentControlMn[mn])
				}
			}
		}
		if !known {
			t.Errorf("the forms table does not know %q", mn)
		}
	}
	if spellings != 87 {
		t.Errorf("walked %d spellings, want 87", spellings)
	}
}
