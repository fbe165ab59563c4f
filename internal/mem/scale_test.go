package mem_test

import (
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/mem"
	"repro/internal/sim"
)

// scaleSpec builds the E18 / figure-22 weak-scaling program for a
// machine of n cores: every hart writes and reads back 64 words of its
// own core's shared bank. internal/figures does not export its
// generator, so this is a copy; TestScaleProgramPages pins the
// figure's cycle anchors, which proves it is the same program.
func scaleSpec(t testing.TB, n int) sim.Spec {
	t.Helper()
	const chunk = 64
	src := fmt.Sprintf(`
#define H %d
#define CHUNK %d
#define RESW 128

int *vchunk(int t) { return lbp_bank_ptr(t >> 2) + RESW + (t & 3) * CHUNK; }

void main() {
	int t;
	#pragma omp parallel for
	for (t = 0; t < H; t++) {
		int *p; int i;
		p = vchunk(t);
		for (i = 0; i < CHUNK; i++) { *p = t + i; p = p + 1; }
	}
	#pragma omp parallel for
	for (t = 0; t < H; t++) {
		int *p; int i; int acc;
		p = vchunk(t);
		acc = 0;
		for (i = 0; i < CHUNK; i++) { acc = acc + *p; p = p + 1; }
		*vchunk(t) = acc;
	}
}
`, 4*n, chunk)
	opt := cc.DefaultOptions()
	opt.Cores = n
	opt.BankReserveBytes = 512
	prog, err := cc.Build(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Spec{Program: prog, Cores: n, MaxCycles: uint64(4*n*chunk*1000 + 1_000_000),
		Trace: sim.TraceSpec{Digest: true}}
}

// TestScaleProgramPages pins the pages the scale program makes
// resident: per core the top page of each of its four hart stacks and
// the two shared pages its harts' chunks span — 6 KiB of the 128 KiB
// its banks address. A warm machine's Reset releases all of them.
func TestScaleProgramPages(t *testing.T) {
	for _, c := range []struct {
		cores  int
		cycles uint64 // BENCH_fig22.json
		pages  int
	}{{64, 44044, 384}, {256, 162112, 1536}, {1024, 635212, 6144}} {
		sess, err := sim.New(scaleSpec(t, c.cores))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Cycles != c.cycles {
			t.Fatalf("%d cores: %d cycles, figure 22 records %d: not the scale program", c.cores, res.Stats.Cycles, c.cycles)
		}
		m := sess.Machine().Mem
		if n := mem.ResidentPages(m); n != c.pages {
			t.Errorf("%d cores: %d pages resident, want %d", c.cores, n, c.pages)
		}
		m.Reset()
		if n := mem.ResidentPages(m); n != 0 {
			t.Errorf("%d cores: %d pages resident after Reset", c.cores, n)
		}
	}
}

// TestRestoreHoldsNoMorePages: a mid-run checkpoint of the 256-core
// scale program carries the banks as pages, so it fits in 1 MiB (as
// zero-trimmed bank images it was 4.4 MiB, EXPERIMENTS E37); it
// restores on a fresh machine holding no more pages than the source,
// and the resumed run finishes exactly like the uninterrupted one.
func TestRestoreHoldsNoMorePages(t *testing.T) {
	spec := scaleSpec(t, 256)
	whole, err := sim.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Run()
	if err != nil {
		t.Fatal(err)
	}
	src, err := sim.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := src.Advance(want.Stats.Cycles / 2); res != nil || err != nil {
		t.Fatalf("the run ended before its midpoint: %v", err)
	}
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp) > 1<<20 {
		t.Errorf("checkpoint at cycle %d is %d bytes, want at most 1 MiB", want.Stats.Cycles/2, len(cp))
	}
	resumed, err := sim.Resume(cp, sim.ResumeSpec{MaxCycles: spec.MaxCycles})
	if err != nil {
		t.Fatal(err)
	}
	have, restored := mem.ResidentPages(src.Machine().Mem), mem.ResidentPages(resumed.Machine().Mem)
	if restored == 0 || restored > have {
		t.Errorf("restored machine holds %d pages, the source %d", restored, have)
	}
	t.Logf("pages at cycle %d: source %d, restored %d; checkpoint %d bytes", want.Stats.Cycles/2, have, restored, len(cp))
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Cycles != want.Stats.Cycles || got.Stats.Retired != want.Stats.Retired ||
		resumed.Recorder().Digest() != whole.Recorder().Digest() {
		t.Errorf("resumed run: %d cycles %d retired digest %#x, want %d %d %#x",
			got.Stats.Cycles, got.Stats.Retired, resumed.Recorder().Digest(),
			want.Stats.Cycles, want.Stats.Retired, whole.Recorder().Digest())
	}
}
