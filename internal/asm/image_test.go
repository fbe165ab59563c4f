package asm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
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

// FuzzReadImage: arbitrary bytes get an error or a program that
// survives WriteImage → ReadImage unchanged; never a panic.
func FuzzReadImage(f *testing.F) {
	vecsum, err := os.ReadFile("testdata/vecsum.img")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(vecsum)
	for _, input := range imageRefusals {
		f.Add([]byte(input))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadImage(bytes.NewReader(data))
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
