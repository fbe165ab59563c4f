package cc

import "repro/internal/asm"

// Build compiles MiniC source into a loadable program: the code
// generator's statement list, with the Deterministic OpenMP runtime when
// the code launches parallel teams, goes to the assembler's layout and
// encode as it is — the text BuildProgram renders is never made. A
// compile failure is an *Error; an *asm.Error means the assembler
// refused the generated code, at the line BuildProgram's text has there.
func Build(src string, opt Options) (*asm.Program, error) {
	l, err := compile(src, opt)
	if err != nil {
		return nil, err
	}
	defer release(l)
	return l.Assemble(asm.Options{})
}

// BuildProgram compiles MiniC source into a complete assembly program:
// the text of the list Build assembles.
func BuildProgram(src string, opt Options) (string, error) {
	l, err := compile(src, opt)
	if err != nil {
		return "", err
	}
	defer release(l)
	return l.String(), nil
}
