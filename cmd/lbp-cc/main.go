// lbp-cc compiles a MiniC (Deterministic OpenMP dialect) source file to
// RV32IM + X_PAR assembly for the LBP processor.
//
// Usage:
//
//	lbp-cc [-o out.s] [-cores N] [-bank BYTES] file.c
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cc"
	"repro/internal/lbp"
)

func main() {
	out := flag.String("o", "", "output file (default: stdout)")
	cores := flag.Int("cores", 0, "target core count (bounds __bank placement; 0 = unchecked)")
	bank := flag.Uint("bank", 1<<16, "shared bank size in bytes (power of two)")
	reserve := flag.Uint("reserve", 4096, "per-bank reserve before __bank data, in bytes")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lbp-cc [flags] file.c")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := cc.CheckBank(uint64(*bank), uint64(*reserve)); err != nil {
		fmt.Fprintf(os.Stderr, "lbp-cc: -bank: %v\n", err)
		os.Exit(2)
	}
	if *cores != 0 {
		if err := lbp.ValidateGeometry(*cores, 0); err != nil {
			fmt.Fprintf(os.Stderr, "lbp-cc: -cores: %v\n", err)
			os.Exit(2)
		}
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	opt := cc.DefaultOptions()
	opt.Cores = *cores
	opt.SharedBankBytes = uint32(*bank)
	opt.BankReserveBytes = uint32(*reserve)
	asmText, err := cc.BuildProgram(string(src), opt)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		fmt.Print(asmText)
		return
	}
	if err := os.WriteFile(*out, []byte(asmText), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbp-cc:", err)
	os.Exit(1)
}
