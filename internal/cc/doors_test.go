package cc_test

// One pipeline, two doors: cc.Build hands the code generator's statement
// list to the assembler's layout and encode; cc.BuildProgram renders the
// same list as text, which asm.Assemble parses back into statements for
// the same layout and encode. These tests hold the doors to one answer.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/workloads"
)

// sameAtBothDoors builds src through the statement door and through the
// text door and reports how they differ, nil if they do not: the same
// image byte for byte, or errors of the same type and message. It
// returns the error both doors gave, if they gave one.
func sameAtBothDoors(src string, opt cc.Options) (refused, diff error) {
	built, berr := cc.Build(src, opt)
	text, terr := cc.BuildProgram(src, opt)
	var assembled *asm.Program
	if terr == nil {
		assembled, terr = asm.Assemble(text, asm.Options{})
	}
	if berr != nil || terr != nil {
		if reflect.TypeOf(berr) != reflect.TypeOf(terr) || fmt.Sprint(berr) != fmt.Sprint(terr) {
			return nil, fmt.Errorf("the statement door says %v (%T), the text door %v (%T)", berr, berr, terr, terr)
		}
		return berr, nil
	}
	var b, a bytes.Buffer
	if err := built.WriteImage(&b); err != nil {
		return nil, err
	}
	if err := assembled.WriteImage(&a); err != nil {
		return nil, err
	}
	if !bytes.Equal(b.Bytes(), a.Bytes()) {
		return nil, fmt.Errorf("the statement door's image (%d bytes) differs from the text door's (%d bytes)", b.Len(), a.Len())
	}
	return nil, nil
}

func TestBuildEqualsText(t *testing.T) {
	type job struct {
		name string
		src  string
		opt  cc.Options
	}
	var jobs []job
	for seed := int64(1); seed <= 200; seed++ {
		src, opt := fuzzgenSource(seed)
		jobs = append(jobs, job{fmt.Sprint("fuzzgen seed ", seed), src, opt})
	}
	for _, h := range []int{16, 64} {
		for _, v := range workloads.Variants {
			src, err := workloads.MatmulSource(v, h)
			if err != nil {
				t.Fatal(err)
			}
			opt := cc.DefaultOptions()
			opt.Cores = h / 4
			jobs = append(jobs, job{fmt.Sprintf("matmul %v at %d harts", v, h), src, opt})
		}
	}
	jobs = append(jobs, job{"sensor fusion", workloads.SensorFusionSource(2), cc.DefaultOptions()})
	files, _ := filepath.Glob("../../testdata/*.c")
	if len(files) == 0 {
		t.Fatal("no testdata/*.c")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{f, string(src), cc.DefaultOptions()})
	}
	for _, j := range jobs {
		if refused, diff := sameAtBothDoors(j.src, j.opt); diff != nil || refused != nil {
			t.Errorf("%s: %v %v", j.name, diff, refused)
		}
	}

	// Programs the assembler refuses: both doors say so in the same
	// words, the line being the one the rendered text has there.
	for name, c := range map[string]struct{ src, want, line string }{
		"undefined function": {"int f(int x);\nint g;\nvoid main() { g = f(1); }\n", `undefined symbol "f"`, "\tjal f"},
		"undefined in a team": {"int f(int x);\nint out[4];\nvoid main() {\n\tint t;\n#pragma omp parallel for\n" +
			"\tfor (t = 0; t < 4; t++) out[t] = f(t);\n}\n", `undefined symbol "f"`, "\tjal f"},
		// past the runtime's own commented text, where a statement's line is
		// not its index
		"oversized global in a team": {"int a[20000000];\nvoid main() {\n\tint t;\n#pragma omp parallel for\n" +
			"\tfor (t = 0; t < 4; t++) a[t] = t;\n}\n", "program larger than", "\t.space 80000000"},
	} {
		refused, diff := sameAtBothDoors(c.src, cc.DefaultOptions())
		ae, ok := refused.(*asm.Error)
		if diff != nil || !ok || !strings.Contains(ae.Msg, c.want) {
			t.Errorf("%s: %v; refused with %v, want an *asm.Error saying %q", name, diff, refused, c.want)
			continue
		}
		text, _ := cc.BuildProgram(c.src, cc.DefaultOptions())
		if line := strings.Split(text, "\n")[ae.Line-1]; line != c.line {
			t.Errorf("%s: line %d of the text is %q, want %q", name, ae.Line, line, c.line)
		}
	}
}

// TestBuildConcurrently: every OpenMP program gets a copy of the one
// parsed runtime, and layout writes sizes and values into the statements
// it walks — into the copy. Run under -race (scripts/verify.sh), eight
// builders sharing the runtime would show a write to it.
func TestBuildConcurrently(t *testing.T) {
	t.Parallel()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := int64(1 + g); seed <= 40; seed += 8 {
				src, opt := fuzzgenSource(seed)
				if refused, diff := sameAtBothDoors(src, opt); diff != nil || refused != nil {
					t.Errorf("seed %d: %v %v", seed, diff, refused)
				}
			}
		}()
	}
	wg.Wait()
}
