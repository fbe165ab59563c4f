package asm

// HostileSources hands TestErrors' sources to FuzzAssemble (package
// asm_test, see assemble_test.go) as seeds.
func HostileSources() []string {
	var out []string
	for _, c := range errorCases {
		if len(c.src) < 1<<10 {
			out = append(out, c.src)
		}
	}
	return out
}
