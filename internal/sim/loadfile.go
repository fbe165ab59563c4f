package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/asm"
	"repro/internal/cc"
)

// Compile builds a program from one of its three input forms: lang
// "img" is a serialized image (lbp-asm output), "s" LBP assembly, "c"
// MiniC. cores and bank parameterize the MiniC runtime (0 = the
// compiler's default) and should match the machine the program will
// run on; the other two forms ignore them.
func Compile(lang string, src []byte, cores int, bank uint32) (*asm.Program, error) {
	switch lang {
	case "img":
		return asm.ReadImage(bytes.NewReader(src))
	case "s":
		return asm.Assemble(string(src), asm.Options{})
	case "c":
		opt := cc.DefaultOptions()
		if cores > 0 {
			opt.Cores = cores
		}
		if bank != 0 {
			opt.SharedBankBytes = bank
		}
		return cc.Build(string(src), opt)
	}
	return nil, fmt.Errorf("sim: unknown program form %q (want c, s or img)", lang)
}

// LoadFile is Compile over a .c, .s or .img file; the extension names
// the form.
func LoadFile(path string, cores int, bank uint32) (*asm.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lang := "s" // the default: any other extension is assembly
	if ext := filepath.Ext(path); ext == ".c" || ext == ".img" {
		lang = ext[1:]
	}
	return Compile(lang, src, cores, bank)
}
