package repro_test

// The surface census: every command-line flag and every exported field
// of an option struct — an exported internal/ struct whose name ends in
// Config, Spec or Options, plus figures.Runner — is counted, and each
// must have a caller outside its own package or a one-line reason in
// censusAllow. A setting that nothing outside its package sets is a
// configuration nobody runs; it becomes a constant instead. The census
// reads the module's source with go/parser alone, so it matches names
// syntactically: a field counts as referenced when a non-test file of
// another package that reaches its package through imports selects the
// name (x.Field), or keys it in a literal of its type; a flag, when a
// script under scripts/ or a string in another package's code passes
// it to its command.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Ceilings: the counts may fall, never rise unseen. Lower them when a
// change deletes a setting.
const (
	maxFlags        = 40
	maxOptionFields = 64
)

// censusAllow names the settings that have no caller outside their own
// package and stay anyway, each with its reason. Keys are "cmd -flag"
// for flags and "pkg.Type.Field" for fields.
var censusAllow = map[string]string{
	// Flags only people set. A flag that verify.sh or another tool
	// passes is referenced and needs no entry.
	"lbp-asm -list":          "prints a disassembly listing for a person to read",
	"lbp-asm -o":             "where the image goes; the tool's one output",
	"lbp-bench -json":        "prints the record on stdout for pipes",
	"lbp-bench -parallel":    "the host fan-out that TestCLIBenchParallelIdentical proves results-neutral",
	"lbp-bench -profile":     "adds the perf counters to a figure's rows",
	"lbp-bench -phases":      "arrival phases of the response sweep",
	"lbp-bench -memprofile":  "host heap profile of a figure run",
	"lbp-bench -cpuprofile":  "host CPU profile of a figure run",
	"lbp-cc -cores":          "the machine a program is compiled for",
	"lbp-cc -bank":           "the shared bank size a program is compiled for",
	"lbp-cc -reserve":        "the per-bank reserve a program is compiled with",
	"lbp-cc -o":              "where the assembly goes; the tool's one output",
	"lbp-run -cores":         "the machine geometry, the tool's main input",
	"lbp-run -max":           "the run's cycle budget",
	"lbp-run -bank":          "the shared bank size of the machine",
	"lbp-run -digest":        "prints the determinism digest",
	"lbp-run -percore":       "prints per-core retired counts",
	"lbp-run -tail":          "prints the last trace events",
	"lbp-run -stats":         "prints the cycle-attribution report",
	"lbp-run -chrome":        "exports the trace for chrome://tracing",
	"lbp-run -checkpoint":    "rewrites a checkpoint file during the run",
	"lbp-run -every":         "the checkpoint interval, RunSliced's second caller",
	"lbp-serve -workers":     "concurrent simulations of a daemon",
	"lbp-serve -queue":       "admission queue depth of a daemon",
	"lbp-serve -deadline":    "default and maximum per-job wall time",
	"lbp-serve -maxcycles":   "largest per-job cycle budget",
	"lbp-serve -ckptdir":     "where preempted jobs' checkpoints go",
	"lbp-serve -drain":       "shutdown grace before preemption",
	"lbp-serve -cachemax":    "the result cache's size bound",
	"lbp-serve -per-backend": "dispatch slots per worker of a coordinator",
	"lbp-serve -ckpt-every":  "migration checkpoint interval of a coordinator",
	"lbp-serve -retries":     "dispatch attempts of a coordinator",

	// Machine parameters: the resolved lbp.Config is hashed by name into
	// sim.CacheKey and written to the checkpoint, and the
	// design-parameter tests sweep them.
	"lbp.Config.ALULat":         "a machine parameter: CacheKey and the checkpoint",
	"lbp.Config.MulLat":         "a machine parameter: CacheKey and the checkpoint",
	"lbp.Config.ITEntries":      "a machine parameter: CacheKey and the checkpoint",
	"lbp.Config.ROBEntries":     "a machine parameter: CacheKey and the checkpoint",
	"lbp.Config.RemoteRBs":      "a machine parameter: CacheKey and the checkpoint",
	"lbp.Config.RBDepth":        "a machine parameter: CacheKey and the checkpoint",
	"lbp.Config.CVBytes":        "a machine parameter: CacheKey and the checkpoint",
	"lbp.Config.LivelockWindow": "a machine parameter: CacheKey and the checkpoint",

	// The Xeon-Phi-like comparison model: Default() holds the
	// calibration to the paper's Figure 21.
	"phimodel.Config.IPCPerCore":  "calibration of the Figure 21 comparison model",
	"phimodel.Config.PeakPerCore": "calibration of the Figure 21 comparison model",
	"phimodel.Config.Alpha":       "calibration of the Figure 21 comparison model",
	"phimodel.Config.Beta":        "calibration of the Figure 21 comparison model",
	"phimodel.Config.Startup":     "calibration of the Figure 21 comparison model",

	"asm.Options.DataBase":         "the assembler's .data origin; asm's own tests move it",
	"sim.ResumeSpec.Devices":       "devices cannot be serialized: the only way to resume a run that has them",
	"fuzzgen.GenConfig.MinCores":   "pins the generator's machine for the checker's targeted tests",
	"fuzzgen.GenConfig.MaxStmts":   "bounds the generator's program size for the checker's targeted tests",
	"sim.Spec.SimWorkers":          "Deprecated: assigned only by the frozen bench/lbp-load/trace.go",
	"dispatch.Config.RetryBackoff": "fleet timing that only tests shorten, until dispatch reads a test clock",
	"dispatch.Config.DialTimeout":  "fleet timing that only tests shorten, until dispatch reads a test clock",
}

// sourceFile is one parsed non-test Go file of the module.
type sourceFile struct {
	dir     string            // package directory, slash-separated
	imports map[string]string // local name → import path
	ast     *ast.File
}

// parseModule parses every non-test Go file of the module at the
// repository root. bench/ is a module of its own and testdata holds
// inputs, so neither is read.
func parseModule(t *testing.T) []sourceFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sf := sourceFile{dir: filepath.ToSlash(filepath.Dir(p)), imports: map[string]string{}, ast: f}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			sf.imports[name] = ip
		}
		files = append(files, sf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// flagDefiners are the flag package's functions that define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"String": true, "Float64": true, "Duration": true, "Func": true, "BoolFunc": true,
	"BoolVar": true, "IntVar": true, "Int64Var": true, "UintVar": true, "Uint64Var": true,
	"StringVar": true, "Float64Var": true, "DurationVar": true, "Var": true, "TextVar": true,
}

// censusFlags returns the flags the commands define, as "cmd -name".
func censusFlags(files []sourceFile) []string {
	var out []string
	for _, f := range files {
		if path.Dir(f.dir) != "cmd" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefiners[sel.Sel.Name] {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || f.imports[x.Name] != "flag" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					out = append(out, path.Base(f.dir)+" -"+name)
					break
				}
			}
			return true
		})
	}
	sort.Strings(out)
	return out
}

// flagMentions collects "cmd -flag" pairs from text: every -word token
// of a line (backslash continuations joined, shell comments skipped)
// that names cmd before it.
func flagMentions(text string, cmds []string, seen map[string]bool) {
	text = strings.ReplaceAll(text, "\\\n", " ")
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		for _, cmd := range cmds {
			i := strings.Index(line, cmd)
			if i < 0 {
				continue
			}
			for _, tok := range strings.Fields(line[i+len(cmd):]) {
				tok = strings.Trim(tok, `"'`)
				if len(tok) > 1 && tok[0] == '-' && tok[1] >= 'a' && tok[1] <= 'z' {
					name, _, _ := strings.Cut(tok, "=")
					seen[cmd+" "+name] = true
				}
			}
		}
	}
}

// censusFlagCallers returns the flags passed by scripts/ or named in a
// string of non-test Go code outside the command's own package.
func censusFlagCallers(t *testing.T, files []sourceFile, cmds []string) map[string]bool {
	seen := map[string]bool{}
	scripts, err := filepath.Glob("scripts/*.sh")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scripts {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		flagMentions(string(b), cmds, seen)
	}
	for _, f := range files {
		own := map[string]bool{}
		if path.Dir(f.dir) == "cmd" {
			own[path.Base(f.dir)] = true
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, _ := strconv.Unquote(lit.Value)
				local := map[string]bool{}
				flagMentions(s, cmds, local)
				for k := range local {
					if cmd, _, _ := strings.Cut(k, " "); !own[cmd] {
						seen[k] = true
					}
				}
			}
			return true
		})
	}
	return seen
}

// optionStruct is one counted struct type.
type optionStruct struct {
	dir, pkg, name string
	fields         []string
}

// censusStructs returns the option structs of internal/.
func censusStructs(files []sourceFile) []optionStruct {
	var out []optionStruct
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, decl := range f.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				counted := strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Spec") ||
					strings.HasSuffix(name, "Options") || (f.ast.Name.Name == "figures" && name == "Runner")
				if !ok || !ts.Name.IsExported() || !counted {
					continue
				}
				st2 := optionStruct{dir: f.dir, pkg: f.ast.Name.Name, name: name}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.IsExported() {
							st2.fields = append(st2.fields, id.Name)
						}
					}
				}
				out = append(out, st2)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pkg+out[i].name < out[j].pkg+out[j].name })
	return out
}

// censusFieldCallers returns the "pkg.Type.Field" keys that non-test
// code outside the struct's package selects or keys. A selector counts
// for the structs of every package the file reaches through module
// imports (cfg.Mem.HopLat in a file importing lbp selects a mem.Config
// field); a keyed literal counts for its named type.
func censusFieldCallers(files []sourceFile, structs []optionStruct) map[string]bool {
	byDir := map[string][]optionStruct{}
	for _, s := range structs {
		byDir[s.dir] = append(byDir[s.dir], s)
	}
	deps := map[string]map[string]bool{} // package dir → module dirs it imports
	for _, f := range files {
		if deps[f.dir] == nil {
			deps[f.dir] = map[string]bool{}
		}
		for _, ip := range f.imports {
			if dir, ok := strings.CutPrefix(ip, "repro/"); ok {
				deps[f.dir][dir] = true
			}
		}
	}
	seen := map[string]bool{}
	for _, f := range files {
		imported := map[string]string{} // local name → dir, module imports only
		reach := map[string]bool{}
		var walk func(dir string)
		walk = func(dir string) {
			if reach[dir] {
				return
			}
			reach[dir] = true
			for d := range deps[dir] {
				walk(d)
			}
		}
		for name, ip := range f.imports {
			if dir, ok := strings.CutPrefix(ip, "repro/"); ok {
				imported[name] = dir
				walk(dir)
			}
		}
		delete(reach, f.dir)
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
					return true // a package-qualified name, not a field
				}
				for dir := range reach {
					for _, s := range byDir[dir] {
						for _, fld := range s.fields {
							if fld == n.Sel.Name {
								seen[s.pkg+"."+s.name+"."+fld] = true
							}
						}
					}
				}
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok || imported[x.Name] == "" || imported[x.Name] == f.dir {
					return true
				}
				for _, s := range byDir[imported[x.Name]] {
					if s.name != sel.Sel.Name {
						continue
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								seen[s.pkg+"."+s.name+"."+id.Name] = true
							}
						}
					}
				}
			}
			return true
		})
	}
	return seen
}

// TestSurfaceCensus counts the flags and option fields, holds them to
// their ceilings, and requires a caller or a reason for each.
func TestSurfaceCensus(t *testing.T) {
	files := parseModule(t)
	flags := censusFlags(files)
	var cmds []string
	for _, f := range flags {
		cmd, _, _ := strings.Cut(f, " ")
		if len(cmds) == 0 || cmds[len(cmds)-1] != cmd {
			cmds = append(cmds, cmd)
		}
	}
	structs := censusStructs(files)
	var fields []string
	for _, s := range structs {
		for _, fld := range s.fields {
			fields = append(fields, s.pkg+"."+s.name+"."+fld)
		}
	}
	t.Logf("census: %d flags (ceiling %d), %d exported option fields in %d structs (ceiling %d)",
		len(flags), maxFlags, len(fields), len(structs), maxOptionFields)
	if len(flags) > maxFlags {
		t.Errorf("%d flags, above the ceiling of %d: delete a setting nothing sets, or raise the ceiling in review", len(flags), maxFlags)
	}
	if len(fields) > maxOptionFields {
		t.Errorf("%d exported option fields, above the ceiling of %d", len(fields), maxOptionFields)
	}

	callers := censusFlagCallers(t, files, cmds)
	for k := range censusFieldCallers(files, structs) {
		callers[k] = true
	}
	exists := map[string]bool{}
	for _, k := range append(flags, fields...) {
		exists[k] = true
		if !callers[k] && censusAllow[k] == "" {
			t.Errorf("%s: no caller outside its package; make it a constant, or give censusAllow a one-line reason", k)
		}
	}
	for k := range censusAllow {
		switch {
		case !exists[k]:
			t.Errorf("censusAllow names %s, which no longer exists", k)
		case callers[k]:
			t.Errorf("censusAllow names %s, which now has a caller: drop the entry", k)
		}
	}
}
