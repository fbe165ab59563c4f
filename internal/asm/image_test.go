package asm

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// imageRefusals are inputs ReadImage must answer with an error: records
// cut short, counts that do not parse or promise words that never come,
// words that are not 32-bit hex.
var imageRefusals = map[string]string{
	"count beyond 31 bits": "lbpimage 1\ntext 0 99999999999\n",
	"count never backed":   "lbpimage 1\ntext 0 2147483647\n",
	"negative count":       "lbpimage 1\ntext 0 -5\n",
	"entry cut short":      "lbpimage 1\nentry\n",
	"text cut short":       "lbpimage 1\ntext 0\n",
	"seg cut short":        "lbpimage 1\nseg 80000000\n",
	"sym cut short":        "lbpimage 1\nsym x\n",
	"entry with extras":    "lbpimage 1\nentry 0 0\n",
	"entry not hex":        "lbpimage 1\nentry zz\n",
	"sym too wide":         "lbpimage 1\nsym x 123456789\n",
	"word with a tail":     "lbpimage 1\ntext 0 1\n12zz\n",
	"more words than said": "lbpimage 1\ntext 0 1\n1 2\n",
	"seg truncated":        "lbpimage 1\ntext 0 1\n1\nseg 80000000 9\n1 2 3\n",
}

// TestReadImageRefusals: every hostile row is an error — no panic, no
// partial program — and none costs more memory than its own bytes: a
// declared count sizes nothing, and there is no per-call scratch buffer.
func TestReadImageRefusals(t *testing.T) {
	rows := map[string]string{ // and a line beyond the scanner's bound, no use as a fuzz seed
		"line too long": "lbpimage 1\nentry 0\nsym " + strings.Repeat("x", 1<<24) + " 0\n",
	}
	for name, input := range imageRefusals {
		rows[name] = input
	}
	for name, input := range rows {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := ReadImage(strings.NewReader(input))
		runtime.ReadMemStats(&after)
		if err == nil || p != nil {
			t.Errorf("%s: ReadImage = %+v, %v; want an error", name, p, err)
		}
		if spent, bound := after.TotalAlloc-before.TotalAlloc, uint64(4*len(input)+64<<10); spent > bound {
			t.Errorf("%s: refusing %d bytes of input allocated %d bytes, want at most %d", name, len(input), spent, bound)
		}
	}
}

// sameProgram reports whether two programs carry the same image (nil
// and empty word lists are one thing: WriteImage cannot tell them apart).
func sameProgram(a, b *Program) bool {
	if a.Entry != b.Entry || a.TextBase != b.TextBase || !slices.Equal(a.Text, b.Text) ||
		len(a.Segments) != len(b.Segments) || len(a.Symbols) != len(b.Symbols) {
		return false
	}
	for i, s := range a.Segments {
		if s.Addr != b.Segments[i].Addr || !slices.Equal(s.Words, b.Segments[i].Words) {
			return false
		}
	}
	for name, v := range a.Symbols {
		if w, ok := b.Symbols[name]; !ok || w != v {
			return false
		}
	}
	return true
}

// readImageFields is ReadImage as it stood until lines were split in
// place: strings.Fields over a string per line. It is the reference the
// in-place splitter is held to (FuzzReadImage).
func readImageFields(r io.Reader) (*Program, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	var fields []string
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
	parse := func() (*Program, error) {
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
	p, err := parse()
	if scErr := sc.Err(); scErr != nil {
		return nil, fmt.Errorf("asm: reading image: %w", scErr)
	}
	return p, err
}

// separatorSeeds are images whose fields are parted by every kind of
// separator strings.Fields knows: ASCII controls, CRLF line ends, and
// Unicode spaces, which only the non-ASCII fallback splits on.
var separatorSeeds = []string{
	"lbpimage 1\r\nentry\v00000004\r\ntext\f0 2\r\n00000093\t00100073\r\nsym main 4\r\n",
	"lbpimage\u00a01\ntext 0 2\n00000093\u008500100073\nsym\u2028main 0\n",
	"lbpimage 1\ntext 0 2\n00000093\u00a0\u00a000100073\u2029\n",
	"lbpimage 1\ntext 0 1\n000000\u00a093\n", // a space inside a word: two fields
	"lbpimage 1\ntext 0 1\n0000\xff0093\n",   // invalid UTF-8 is not a space
	"lbpimage 1\nsym ma\u200bin 4\n",         // a zero-width space is not one either
	"lbpimage 1\ntext 0 1\n0000_0093\n",      // nor is an underscore a digit
	"lbpimage 1\ntext 0 1\n+0000093\n",
	"lbpimage 1\nentry 0000000000000000ffffffff\n", // leading zeros past 8 digits
	"lbpimage 1\nentry 100000000\n",                // 33 bits
	"lbpimage 1\nentry 0x10\n",
}

// FuzzReadImage: arbitrary bytes get an error or a program that
// survives WriteImage → ReadImage unchanged, never a panic; and ReadImage
// accepts and refuses exactly what the strings.Fields parser
// (readImageFields) does, with the same program or the same error.
func FuzzReadImage(f *testing.F) {
	vecsum, err := os.ReadFile("testdata/vecsum.img")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(vecsum)
	for _, input := range imageRefusals {
		f.Add([]byte(input))
	}
	for _, input := range separatorSeeds {
		f.Add([]byte(input))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadImage(bytes.NewReader(data))
		ref, refErr := readImageFields(bytes.NewReader(data))
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("ReadImage: %v; the strings.Fields parser: %v", err, refErr)
		case err != nil && err.Error() != refErr.Error():
			t.Fatalf("ReadImage refuses with %q, the strings.Fields parser with %q", err, refErr)
		case err == nil && !sameProgram(p, ref):
			t.Fatalf("ReadImage and the strings.Fields parser disagree:\n%+v\n%+v", p, ref)
		}
		if err != nil {
			if p != nil {
				t.Fatalf("ReadImage returned both a program and %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := p.WriteImage(&buf); err != nil {
			t.Fatalf("WriteImage of an accepted image: %v", err)
		}
		q, err := ReadImage(&buf)
		if err != nil {
			t.Fatalf("ReadImage refuses what WriteImage wrote: %v", err)
		}
		if !sameProgram(p, q) {
			t.Fatalf("image does not round-trip:\n%+v\n%+v", p, q)
		}
	})
}

// TestImageAllocs pins the garbage of the two image directions:
// WriteImage into a hash allocates as often for a 4 Ki-word image as for
// a 64-word one (its buffered writer is pooled, its words go through a
// table), and ReadImage's allocations do not grow with the word lines.
func TestImageAllocs(t *testing.T) {
	image := func(words int) *Program {
		text := make([]uint32, words)
		for i := range text {
			text[i] = uint32(i) * 2654435761
		}
		return &Program{Entry: 0x40, Text: text, Symbols: map[string]uint32{"main": 0x40}}
	}
	small, large := image(64), image(4<<10)
	h := sha256.New()
	writes := func(p *Program) float64 {
		return testing.AllocsPerRun(50, func() {
			if err := p.WriteImage(h); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := writes(small), writes(large); s != l {
		t.Errorf("WriteImage into sha256 allocates %v times for 64 words, %v for 4096", s, l)
	}
	reads := func(p *Program) float64 {
		var buf bytes.Buffer
		if err := p.WriteImage(&buf); err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(buf.Bytes())
		return testing.AllocsPerRun(50, func() {
			r.Reset(buf.Bytes())
			if _, err := ReadImage(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := reads(small), reads(large); s != l {
		t.Errorf("ReadImage allocates %v times for 8 word lines, %v for 512", s, l)
	}
}

// writeWordsFmt is writeWords as it stood until the digits came from a
// table: one fmt call per word. It is the reference the table is held to.
func writeWordsFmt(w io.Writer, words []uint32) {
	for i, v := range words {
		if i%8 == 7 || i == len(words)-1 {
			fmt.Fprintf(w, "%08x\n", v)
		} else {
			fmt.Fprintf(w, "%08x ", v)
		}
	}
}

// TestWriteWordsMatchesFmt: the hand-formatted words are the bytes fmt
// printed — around the eight-a-line boundary, past bufio's 4 KiB
// buffer, and for the words whose digits are all low, all high, or
// mostly leading zeros.
func TestWriteWordsMatchesFmt(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 4097} {
		words := make([]uint32, n)
		for i := range words {
			words[i] = [...]uint32{0, 0xffffffff, 0x0000000a, uint32(i) * 2654435761}[i%4]
		}
		var got, want bytes.Buffer
		bw := bufio.NewWriter(&got)
		writeWords(bw, words)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		writeWordsFmt(&want, words)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d words:\ngot  %q\nwant %q", n, got.Bytes(), want.Bytes())
		}
	}
}

// TestWriteImageFixture: testdata/vecsum.img is lbp-asm's output from
// before writeWords changed; reading it and writing it back must give
// the file, byte for byte (cache keys are hashes of these bytes).
func TestWriteImageFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/vecsum.img")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ReadImage(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := p.WriteImage(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("WriteImage(ReadImage(vecsum.img)) differs from vecsum.img:\n%s", got.Bytes())
	}
}

// imageBenchPrograms are a 4-word program (per-call overhead) and one
// with 64 Ki data words (≈ 590 KB of text, the size of serve_hot's
// image job).
func imageBenchPrograms() (small, heavy *Program) {
	data := make([]uint32, 64<<10)
	for i := range data {
		data[i] = uint32(i) * 2654435761
	}
	small = &Program{Text: []uint32{0x00000093, 0xfff00293, 0x0000028b, 0x00100073}}
	heavy = &Program{Text: small.Text, Segments: []Segment{{Addr: DefaultDataBase, Words: data}}}
	return small, heavy
}

// BenchmarkWriteImage serializes the vecsum fixture (a compiled
// program: 123 text words, symbols) and the data-heavy image into a
// discarding writer — what sim.CacheKey pays per key, minus the hash.
func BenchmarkWriteImage(b *testing.B) {
	img, err := os.ReadFile("testdata/vecsum.img")
	if err != nil {
		b.Fatal(err)
	}
	vecsum, err := ReadImage(bytes.NewReader(img))
	if err != nil {
		b.Fatal(err)
	}
	_, heavy := imageBenchPrograms()
	for _, bc := range []struct {
		name string
		p    *Program
	}{{"vecsum", vecsum}, {"data-heavy", heavy}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.p.WriteImage(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadImage parses imageBenchPrograms' two; MB/s is over the
// serialized bytes.
func BenchmarkReadImage(b *testing.B) {
	small, heavy := imageBenchPrograms()
	for _, bc := range []struct {
		name string
		p    *Program
	}{{"small", small}, {"data-heavy", heavy}} {
		var buf bytes.Buffer
		if err := bc.p.WriteImage(&buf); err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(buf.Len()))
			for i := 0; i < b.N; i++ {
				if _, err := ReadImage(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
