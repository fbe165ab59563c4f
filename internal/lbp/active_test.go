package lbp

import (
	"math/bits"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/trace"
)

// fullNeighborProgram fills core 1's four harts from core 0 and then
// issues a fifth p_fn that has to wait: the first child (ender) counts
// down and ends with a type-1 p_ret, freeing its hart while the p_fn sits
// ready in core 0's instruction table. Main's own type-4 p_ret (join to
// self) is only there to send ender the ending-hart signal its p_ret
// commit is gated on.
const fullNeighborProgram = `
main:
	li t0, -1
	p_set t0, t0
	p_fn t6                  # core 1 hart 0
	p_merge t0, t0, t6
	p_jal ra, t6, m1
ender:
	li t1, 40
eloop:
	addi t1, t1, -1
	bne t1, zero, eloop
	lui t0, 0x80010
	addi t0, t0, -1          # valid identity, home 0, no link
	li ra, 0
	p_ret                    # ending type 1: frees core 1 hart 0
m1:
	la ra, m2
	p_ret                    # signal to ender; resume at m2 on this hart
m2:
	p_fn t6                  # core 1 hart 1
	p_jal ra, t6, m3
spin1:
	j spin1
m3:
	p_fn t6                  # core 1 hart 2
	p_jal ra, t6, m4
spin2:
	j spin2
m4:
	p_fn t6                  # core 1 hart 3
	p_jal ra, t6, m5
spin3:
	j spin3
m5:
	p_fn t6                  # core 1 is full: waits for ender's hart
	li ra, 0
	li t0, -1
	p_ret                    # exit
`

// checkActiveSet asserts the two invariants everything that walks
// m.active relies on: busy is the number of non-free harts of its core,
// and the list is exactly the cores with busy > 0, ascending. Between
// Advance calls a stale list is consistent as long as activeDirty says
// so (mayBeFlagged): Advance rebuilds before its first cycle.
func checkActiveSet(t *testing.T, m *Machine, label string, mayBeFlagged bool) {
	t.Helper()
	var want []*core
	for _, c := range m.cores {
		n := 0
		for _, h := range c.harts {
			if h.State != hartFree {
				n++
			}
		}
		if c.busy != n {
			t.Fatalf("%s: cycle %d: core %d busy = %d, %d harts are not free",
				label, m.cycle, c.idx, c.busy, n)
		}
		if n > 0 {
			want = append(want, c)
		}
	}
	if m.activeDirty {
		if !mayBeFlagged {
			t.Fatalf("%s: cycle %d: the active list was left flagged stale", label, m.cycle)
		}
		return
	}
	if len(m.active) != len(want) {
		t.Fatalf("%s: cycle %d: %d cores listed active, %d have busy harts",
			label, m.cycle, len(m.active), len(want))
	}
	for i, c := range want {
		if m.active[i] != c {
			t.Fatalf("%s: cycle %d: active[%d] = core %d, want core %d",
				label, m.cycle, i, m.active[i].idx, c.idx)
		}
	}
}

// checkHartAccounting asserts the per-hart attribution identity: each
// hart's commits and stalls add up to the cycles simulated, whether the
// hart was walked every cycle or paid in bulk for an idle span.
func checkHartAccounting(t *testing.T, m *Machine, label string) {
	t.Helper()
	if m.PerfSnapshot() == nil {
		t.Fatalf("%s: profiling is off", label)
	}
	for i := range m.hperf {
		sum := m.hperf[i].Commits
		for _, v := range m.hperf[i].Stalls {
			sum += v
		}
		if sum != m.cycle {
			t.Fatalf("%s: hart %d: commits + stalls = %d at cycle %d", label, i, sum, m.cycle)
		}
	}
}

// stepChecked single-steps m until it exits or reaches cycle `until`
// (0 = run to the end), checking the active set after every cycle.
func stepChecked(t *testing.T, m *Machine, label string, until uint64, each func()) *Result {
	t.Helper()
	for until == 0 || m.cycle < until {
		res, err := m.Advance(1)
		if err != nil {
			t.Fatalf("%s: cycle %d: %v", label, m.cycle, err)
		}
		checkActiveSet(t, m, label, false)
		if each != nil {
			each()
		}
		if res != nil {
			return res
		}
		if m.cycle > 1_000_000 {
			t.Fatalf("%s: still running at cycle %d", label, m.cycle)
		}
	}
	return nil
}

// TestActiveSetInvariant single-steps a 256-member team across 64 cores
// — a fork wave that lists and unlists every core — through a
// checkpoint/restore and a Reset onto a second program, asserting after
// every cycle that m.active is exact. The second program pins the p_fn
// issue gate, which reads the neighbor's live busy count: with the
// neighbor full and one of its harts retiring its p_ret in cycle T, the
// waiting p_fn issues in T+1, not T. Final cycles, digests and event
// counts were recorded on the per-cycle all-cores walk this replaced.
func TestActiveSetInvariant(t *testing.T) {
	const cores, nt = 64, 256
	progA, err := asm.Assemble(sprintf(teamProgram, nt, nt), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	progB, err := asm.Assemble(fullNeighborProgram, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(cores))
	m.SetTrace(trace.New(0))
	m.EnableProfiling()
	if err := m.LoadProgram(progA); err != nil {
		t.Fatal(err)
	}
	checkActiveSet(t, m, "A loaded", true)

	// Far enough into the wave that cores behind it have emptied again:
	// the creator waits on core 0, idle cores lie on both sides of the wave.
	const splitAt = 1500
	stepChecked(t, m, "A", splitAt, nil)
	if n, last := len(m.active), m.active[len(m.active)-1].idx; last == n-1 || last == cores-1 {
		t.Fatalf("cycle %d: %d active cores, the last is core %d; the split should land mid-wave",
			m.cycle, n, last)
	}
	checkHartAccounting(t, m, "A split")
	cp, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Restore(cp)
	if err != nil {
		t.Fatal(err)
	}
	checkActiveSet(t, m2, "A restored", false)
	resA := stepChecked(t, m2, "A restored", 0, nil)
	checkTeamResult(t, m2, nt)
	checkHartAccounting(t, m2, "A end")
	if c, d, n := resA.Stats.Cycles, m2.Trace().Digest(), m2.Trace().Count(); c != 13737 || d != 0x608ce849fdaaaa9e || n != 15748 {
		t.Errorf("team run: cycles %d digest %#x events %d, want 13737 / 0x608ce849fdaaaa9e / 15748", c, d, n)
	}

	// Reset the paused original, mid-wave, onto the p_fn program.
	if err := m.Reset(progB); err != nil {
		t.Fatal(err)
	}
	m.SetTrace(trace.New(0))
	checkActiveSet(t, m, "B loaded", true)
	main, next := m.harts[0], m.cores[1]
	var freedAt, forksBefore uint64
	prevBusy, pfnReady := 0, false
	resB := stepChecked(t, m, "B", 0, func() {
		switch {
		case prevBusy == HartsPerCore && next.busy == HartsPerCore-1:
			// ender's p_ret committed this cycle. The p_fn was ready
			// before it and must not have seen the freed hart.
			if !pfnReady {
				t.Errorf("cycle %d: no ready p_fn was waiting on core 0", m.cycle)
			}
			freedAt, forksBefore = m.cycle, m.stats.Forks
		case freedAt != 0 && m.cycle == freedAt+1:
			if next.busy != HartsPerCore || m.stats.Forks != forksBefore+1 {
				t.Errorf("cycle %d: core 1 busy = %d, forks = %d; the p_fn should have issued one cycle after the p_ret of cycle %d",
					m.cycle, next.busy, m.stats.Forks, freedAt)
			}
		}
		prevBusy = next.busy
		pfnReady = false
		if main.IT != 0 {
			oldest := &main.Rob[main.robSlot(bits.TrailingZeros64(main.itAge()))]
			pfnReady = oldest.d.Inst.Op == isa.OpPFN && oldest.ready()
		}
	})
	if freedAt == 0 {
		t.Fatal("core 1 never went from four busy harts to three")
	}
	checkHartAccounting(t, m, "B end")
	if resB.Halt != "exit" {
		t.Errorf("halt = %q", resB.Halt)
	}
	if c, d, n := resB.Stats.Cycles, m.Trace().Digest(), m.Trace().Count(); freedAt != 343 || c != 349 || d != 0xaa5f8cd357e0bd27 || n != 702 {
		t.Errorf("p_fn run: p_ret at %d, cycles %d digest %#x events %d, want 343, 349 / 0xaa5f8cd357e0bd27 / 702", freedAt, c, d, n)
	}
}
