package asm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
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

// imageWriters holds WriteImage's buffered writers: sim.CacheKey prints
// every cold job's image into its hash.
var imageWriters = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}

// WriteImage serializes the program.
func (p *Program) WriteImage(w io.Writer) error {
	bw := imageWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	defer putImageWriter(bw)
	bw.WriteString("lbpimage 1\nentry")
	writeTail(bw, p.Entry, -1)
	bw.WriteString("text")
	writeTail(bw, p.TextBase, len(p.Text))
	writeWords(bw, p.Text)
	for _, s := range p.Segments {
		bw.WriteString("seg")
		writeTail(bw, s.Addr, len(s.Words))
		writeWords(bw, s.Words)
	}
	for _, name := range p.SymbolsSorted() {
		bw.WriteString("sym ")
		bw.WriteString(name)
		writeTail(bw, p.Symbols[name], -1)
	}
	return bw.Flush()
}

func putImageWriter(bw *bufio.Writer) {
	bw.Reset(nil) // drop w
	imageWriters.Put(bw)
}

const digits = "0123456789abcdef"

// writeTail ends a record after its name: " <v as 8-digit hex>", then
// " <n in decimal>" when n >= 0, then the newline — a byte at a time, so
// that no number is boxed for fmt.
func writeTail(w *bufio.Writer, v uint32, n int) {
	w.WriteByte(' ')
	for j := 28; j >= 0; j -= 4 {
		w.WriteByte(digits[v>>j&0xf])
	}
	if n >= 0 {
		w.WriteByte(' ')
		writeDecimal(w, n)
	}
	w.WriteByte('\n')
}

func writeDecimal(w *bufio.Writer, n int) {
	if n >= 10 {
		writeDecimal(w, n/10)
	}
	w.WriteByte(byte('0' + n%10))
}

// writeWords prints eight words a line as 8-digit lowercase hex, the
// last line as short as it falls. Digits come from a table, not fmt: a
// cache key prints the whole image into its hash (sim.CacheKey).
func writeWords(w *bufio.Writer, words []uint32) {
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
	var fields [][]byte
	// next loads the fields of the next non-blank line; they alias the
	// scanner's buffer, good until the next call.
	next := func() bool {
		for sc.Scan() {
			if fields = splitFields(fields[:0], sc.Bytes()); len(fields) > 0 {
				return true
			}
		}
		return false
	}
	// block reads the header "<kind> <addr-hex> <nwords>" in fields and
	// the n words after it, whole lines at a time.
	block := func() (addr uint32, words []uint32, err error) {
		if addr, err = hexWord(fields[1]); err != nil {
			return 0, nil, err
		}
		n, err := strconv.ParseUint(string(fields[2]), 10, 31)
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
				v, err := hexWord(f)
				if err != nil {
					return 0, nil, err
				}
				words = append(words, v)
			}
		}
		return addr, words, nil
	}

	if !next() || len(fields) != 2 || string(fields[0]) != "lbpimage" || string(fields[1]) != "1" {
		return nil, fmt.Errorf("asm: not an lbpimage v1 file")
	}
	p := &Program{Symbols: map[string]uint32{}}
	for next() {
		kind, want := string(fields[0]), 3
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
			p.Entry, err = hexWord(fields[1])
		case "text":
			p.TextBase, p.Text, err = block()
		case "seg":
			var seg Segment
			seg.Addr, seg.Words, err = block()
			p.Segments = append(p.Segments, seg)
		case "sym":
			p.Symbols[string(fields[1])], err = hexWord(fields[2])
		}
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// splitFields appends the fields of line to dst, as strings.Fields would
// split it, without a string or a slice per line: an image is mostly
// word lines. A line with a non-ASCII byte goes to bytes.Fields, which
// splits on Unicode space as strings.Fields does.
func splitFields(dst [][]byte, line []byte) [][]byte {
	for _, c := range line {
		if c >= utf8.RuneSelf {
			return append(dst, bytes.Fields(line)...)
		}
	}
	for i := 0; i < len(line); {
		for i < len(line) && asciiSpace[line[i]] {
			i++
		}
		start := i
		for i < len(line) && !asciiSpace[line[i]] {
			i++
		}
		if i > start {
			dst = append(dst, line[start:i])
		}
	}
	return dst
}

// asciiSpace is strings.Fields' set of ASCII separators.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// hexWord parses f as strconv.ParseUint(f, 16, 32) does — hex digits of
// either case, no sign, prefix or underscore, at most 32 bits of value —
// without making f a string.
func hexWord(f []byte) (uint32, error) {
	var v uint64
	for _, c := range f {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, fmt.Errorf("asm: bad word %q", f)
		}
		if v = v<<4 | uint64(c); v > math.MaxUint32 {
			return 0, fmt.Errorf("asm: bad word %q", f)
		}
	}
	if len(f) == 0 {
		return 0, fmt.Errorf("asm: bad word %q", f)
	}
	return uint32(v), nil
}
