package mem

// ResidentPages returns the number of bank pages attached to s: what
// its local and shared banks hold of host memory.
func ResidentPages(s *System) int {
	return len(s.local.written) + len(s.shared.written)
}

// CodeWords returns the length and capacity of s's code prefix, and
// whether s holds an array for it at all.
func CodeWords(s *System) (length, capacity int, held bool) {
	return len(s.code), cap(s.code), s.code != nil
}
