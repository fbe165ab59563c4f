package cc

import (
	"strings"

	"repro/internal/detomp"
)

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
