package cc

// ParseOffset parses src like Parse and reports the byte offset the
// lexer had reached when the parse ended.
func ParseOffset(src string) (offset int, err error) {
	_, l, err := parse(src)
	return l.pos, err
}
