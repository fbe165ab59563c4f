package asm_test

// Tests of Assemble that need the compiler or the program generator to
// make their input; both import this package, so they live outside it.

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/detomp"
	"repro/internal/fuzzgen"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// compiledSeed is the assembly text cc makes of one generated program:
// what the serving workloads hand the assembler.
func compiledSeed(tb testing.TB, seed int64) string {
	tb.Helper()
	p := fuzzgen.Generate(seed, fuzzgen.GenConfig{})
	opt := cc.DefaultOptions()
	if p.MinCores > 0 {
		opt.Cores = p.MinCores
	}
	text, err := cc.BuildProgram(p.Render(), opt)
	if err != nil {
		tb.Fatalf("seed %d: %v", seed, err)
	}
	return text
}

// BenchmarkAssemble assembles the stream the serving benchmark sends
// (bench/lbp-load's cold jobs): generated OpenMP programs, compiled.
func BenchmarkAssemble(b *testing.B) {
	var srcs []string
	bytes := 0
	for seed := int64(1); seed <= 20; seed++ {
		srcs = append(srcs, compiledSeed(b, seed))
		bytes += len(srcs[len(srcs)-1])
	}
	b.ReportAllocs()
	b.SetBytes(int64(bytes / len(srcs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(srcs[i%len(srcs)], asm.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteImageFixedPoint: a compiled matmul (text, several data
// segments, symbols) written, read back and written again gives the
// same bytes — the image format loses nothing WriteImage prints.
func TestWriteImageFixedPoint(t *testing.T) {
	prog, err := workloads.BuildMatmul(workloads.Tiled, 16)
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := prog.WriteImage(&first); err != nil {
		t.Fatal(err)
	}
	back, err := asm.ReadImage(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.WriteImage(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("WriteImage → ReadImage → WriteImage moved bytes (%d vs %d)", first.Len(), second.Len())
	}
}

// FuzzAssemble: any source text gets an *asm.Error, or a program within
// the size bound whose image survives WriteImage → ReadImage and whose
// every text word is an instruction the table encodes back to the same
// word; never a panic, never more than a bounded time.
func FuzzAssemble(f *testing.F) {
	hello, err := os.ReadFile("../../testdata/hello.s")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(hello))
	f.Add(detomp.Runtime())
	f.Add(compiledSeed(f, 1))
	for _, src := range asm.HostileSources() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		start := time.Now()
		p, err := asm.Assemble(src, asm.Options{})
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("Assemble took %v", d)
		}
		if err != nil {
			var ae *asm.Error
			if !errors.As(err, &ae) {
				t.Fatalf("error %v (%T) is not an *asm.Error", err, err)
			}
			return
		}
		words := len(p.Text)
		for _, s := range p.Segments {
			words += len(s.Words)
		}
		if words > 1<<24 {
			t.Fatalf("program of %d words is over the 64 MiB bound", words)
		}
		if words > 1<<16 {
			return // a .space the fuzzer grew: not worth walking 9 bytes of image per word
		}
		for i, w := range p.Text {
			in := isa.Decode(w)
			if enc, err := isa.Encode(in); in.Op == isa.OpInvalid || err != nil || enc != w {
				t.Fatalf("text word %d = %#08x decodes to %v and encodes back to %#08x, %v", i, w, in.Op, enc, err)
			}
		}
		var img, again bytes.Buffer
		if err := p.WriteImage(&img); err != nil {
			t.Fatal(err)
		}
		q, err := asm.ReadImage(bytes.NewReader(img.Bytes()))
		if err != nil {
			t.Fatalf("ReadImage of the written image: %v", err)
		}
		if err := q.WriteImage(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img.Bytes(), again.Bytes()) {
			t.Fatal("image changed across WriteImage -> ReadImage -> WriteImage")
		}
	})
}
