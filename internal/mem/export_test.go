package mem

// ResidentPages returns the number of bank pages attached to s: what
// its local and shared banks hold of host memory.
func ResidentPages(s *System) int {
	return len(s.local.written) + len(s.shared.written)
}
