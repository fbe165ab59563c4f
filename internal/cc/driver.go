package cc

import (
	"strings"

	"repro/internal/asm"
	"repro/internal/detomp"
)

// Build compiles MiniC source and assembles the result into a loadable
// program: BuildProgram, then asm.Assemble. A compile failure is an
// *Error; an *asm.Error means the assembler refused the generated text.
func Build(src string, opt Options) (*asm.Program, error) {
	asmText, err := BuildProgram(src, opt)
	if err != nil {
		return nil, err
	}
	return asm.Assemble(asmText, asm.Options{})
}

// BuildProgram compiles MiniC source into a complete assembly program,
// appending the Deterministic OpenMP runtime when the code launches
// parallel teams.
func BuildProgram(src string, opt Options) (string, error) {
	asmText, err := Compile(src, opt)
	if err != nil {
		return "", err
	}
	if UsesParallel(asmText) && !detomp.UsesRuntime(asmText) {
		// Insert the runtime before the data section so it assembles
		// into the text image.
		asmText = insertBeforeData(asmText, detomp.Runtime())
	}
	return asmText, nil
}

func insertBeforeData(asmText, runtime string) string {
	const marker = "\t.data\n"
	if i := strings.Index(asmText, marker); i >= 0 {
		return asmText[:i] + runtime + "\n" + asmText[i:]
	}
	return asmText + runtime
}
