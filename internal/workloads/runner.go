package workloads

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/lbp"
)

// BuildMatmul compiles and assembles a matmul variant for h harts,
// targeting an h/4-core machine.
func BuildMatmul(v MatmulVariant, h int) (*asm.Program, error) {
	src, err := MatmulSource(v, h)
	if err != nil {
		return nil, err
	}
	opt := cc.DefaultOptions()
	opt.Cores = h / 4
	opt.SharedBankBytes = SharedBankBytes(h)
	opt.BankReserveBytes = 4 * reserveWords
	prog, err := cc.Build(src, opt)
	if err != nil {
		return nil, fmt.Errorf("workloads: build %s/%d: %w", v, h, err)
	}
	return prog, nil
}

// MatmulConfig is the machine configuration matching BuildMatmul:
// h/4 cores with the experiment's shared bank size. Machines are built
// from it through the internal/sim session layer.
func MatmulConfig(h int) lbp.Config {
	cfg := lbp.DefaultConfig(h / 4)
	cfg.Mem.SharedBytes = SharedBankBytes(h)
	return cfg
}

// MaxMatmulCycles bounds a matmul run generously.
func MaxMatmulCycles(h int) uint64 {
	n := uint64(h)
	return 2000*n*n*n/2 + 1_000_000
}

// VerifyMatmul checks Z == h/2 everywhere after a run.
func VerifyMatmul(m *lbp.Machine, p *asm.Program, v MatmulVariant, h int) error {
	want := uint32(h / 2)
	read := func(addr uint32) (uint32, error) {
		val, ok := m.ReadShared(addr)
		if !ok {
			return 0, fmt.Errorf("workloads: unmapped Z address %#x", addr)
		}
		return val, nil
	}
	switch v {
	case Base, Copy:
		z, ok := p.Symbols["Z"]
		if !ok {
			return fmt.Errorf("workloads: no Z symbol")
		}
		for i := 0; i < h*h; i++ {
			val, err := read(z + uint32(4*i))
			if err != nil {
				return err
			}
			if val != want {
				return fmt.Errorf("workloads: %s/%d: Z[%d] = %d, want %d", v, h, i, val, want)
			}
		}
	default:
		// distributed layout: line i of Z in bank i/4
		bankBytes := m.Config().Mem.SharedBytes
		for i := 0; i < h; i++ {
			base := 0x80000000 + uint32(i/4)*bankBytes +
				4*uint32(reserveWords+4*h+(i%4)*h)
			for j := 0; j < h; j++ {
				val, err := read(base + uint32(4*j))
				if err != nil {
					return err
				}
				if val != want {
					return fmt.Errorf("workloads: %s/%d: Z[%d][%d] = %d, want %d",
						v, h, i, j, val, want)
				}
			}
		}
	}
	return nil
}
