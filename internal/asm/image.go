package asm

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Program image serialization: a simple line-oriented text format so that
// lbp-asm output can be inspected, diffed and reloaded by lbp-run.
//
//	lbpimage 1
//	entry <hex>
//	text <base-hex> <nwords>
//	<8-hex-digit word> ...
//	seg <addr-hex> <nwords>
//	<words...>
//	sym <name> <hex>

// WriteImage serializes the program.
func (p *Program) WriteImage(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "lbpimage 1\n")
	fmt.Fprintf(bw, "entry %08x\n", p.Entry)
	fmt.Fprintf(bw, "text %08x %d\n", p.TextBase, len(p.Text))
	writeWords(bw, p.Text)
	for _, s := range p.Segments {
		fmt.Fprintf(bw, "seg %08x %d\n", s.Addr, len(s.Words))
		writeWords(bw, s.Words)
	}
	for _, name := range p.SymbolsSorted() {
		fmt.Fprintf(bw, "sym %s %08x\n", name, p.Symbols[name])
	}
	return bw.Flush()
}

// writeWords prints eight words a line as 8-digit lowercase hex, the
// last line as short as it falls. Digits come from a table, not fmt: a
// cache key prints the whole image into its hash (sim.CacheKey).
func writeWords(w *bufio.Writer, words []uint32) {
	const digits = "0123456789abcdef"
	var buf [9]byte
	for i, v := range words {
		for j := 7; j >= 0; j-- {
			buf[j] = digits[v&0xf]
			v >>= 4
		}
		buf[8] = ' '
		if i%8 == 7 || i == len(words)-1 {
			buf[8] = '\n'
		}
		w.Write(buf[:])
	}
}

// ReadImage parses a serialized program. The bytes are untrusted — POST
// /jobs hands it a request field, a worker whatever its coordinator
// sent — so every malformed record is an error, never a panic, and a
// declared word count never sizes an allocation: memory follows the
// input actually read.
func ReadImage(r io.Reader) (*Program, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24) // WriteImage's lines are short; a symbol name need not be
	p, err := readImage(sc)
	if scErr := sc.Err(); scErr != nil {
		return nil, fmt.Errorf("asm: reading image: %w", scErr)
	}
	return p, err
}

func readImage(sc *bufio.Scanner) (*Program, error) {
	var fields []string
	// next loads the fields of the next non-blank line.
	next := func() bool {
		for sc.Scan() {
			if fields = strings.Fields(sc.Text()); len(fields) > 0 {
				return true
			}
		}
		return false
	}
	hex := func(f string) (uint32, error) {
		v, err := strconv.ParseUint(f, 16, 32)
		if err != nil {
			return 0, fmt.Errorf("asm: bad word %q", f)
		}
		return uint32(v), nil
	}
	// block reads the header "<kind> <addr-hex> <nwords>" in fields and
	// the n words after it, whole lines at a time.
	block := func() (addr uint32, words []uint32, err error) {
		if addr, err = hex(fields[1]); err != nil {
			return 0, nil, err
		}
		n, err := strconv.ParseUint(fields[2], 10, 31)
		if err != nil {
			return 0, nil, fmt.Errorf("asm: bad word count %q", fields[2])
		}
		words = make([]uint32, 0, min(n, 1<<12))
		for uint64(len(words)) < n {
			if !next() {
				return 0, nil, fmt.Errorf("asm: truncated image (want %d words, got %d)", n, len(words))
			}
			if uint64(len(words)+len(fields)) > n {
				return 0, nil, fmt.Errorf("asm: word count mismatch: %d vs %d", len(words)+len(fields), n)
			}
			for _, f := range fields {
				v, err := hex(f)
				if err != nil {
					return 0, nil, err
				}
				words = append(words, v)
			}
		}
		return addr, words, nil
	}

	if !next() || len(fields) != 2 || fields[0] != "lbpimage" || fields[1] != "1" {
		return nil, fmt.Errorf("asm: not an lbpimage v1 file")
	}
	p := &Program{Symbols: map[string]uint32{}}
	for next() {
		kind, want := fields[0], 3
		switch kind {
		case "entry":
			want = 2
		case "text", "seg", "sym":
		default:
			return nil, fmt.Errorf("asm: unknown image record %q", kind)
		}
		if len(fields) != want {
			return nil, fmt.Errorf("asm: %s record has %d fields, want %d", kind, len(fields), want)
		}
		var err error
		switch kind {
		case "entry":
			p.Entry, err = hex(fields[1])
		case "text":
			p.TextBase, p.Text, err = block()
		case "seg":
			var seg Segment
			seg.Addr, seg.Words, err = block()
			p.Segments = append(p.Segments, seg)
		case "sym":
			p.Symbols[fields[1]], err = hex(fields[2])
		}
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}
