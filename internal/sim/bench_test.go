package sim

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// BenchmarkNewReset times what a cold and a warm checkout pay for the
// machine of the figure-22 scale program (setGetProgram with 64-word
// chunks) at 64, 256 and 1024 cores: New builds and loads one, Reset
// returns one that ran the program to its initial state. Reset's banks
// are re-dirtied before every iteration, outside the timer, by
// restoring a copy of the pages the run left — the pages a run writes
// are what Reset has to release.
func BenchmarkNewReset(b *testing.B) {
	for _, cores := range []int{64, 256, 1024} {
		spec := Spec{Program: setGetProgram(b, cores, 64), Cores: cores, MaxCycles: 50_000_000}
		b.Run(fmt.Sprintf("New/%dc", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := New(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Reset/%dc", cores), func(b *testing.B) {
			sess, err := New(spec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Run(); err != nil {
				b.Fatal(err)
			}
			sys := sess.Machine().Mem
			// A capture points at the live pages, restore takes its pages
			// over and Reset releases them: every restore gets copies.
			st := sys.CaptureGlobalState()
			st.Local, st.Shared = copyPages(st.Local), copyPages(st.Shared)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dirty := *st
				dirty.Local, dirty.Shared = copyPages(st.Local), copyPages(st.Shared)
				if err := sys.RestoreGlobalState(&dirty, sess.Machine().Cycle()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := sess.Reset(spec.Program); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// copyPages copies pages and their words.
func copyPages(pages []mem.Page) []mem.Page {
	out := make([]mem.Page, len(pages))
	for i, p := range pages {
		w := *p.Words
		out[i] = mem.Page{Index: p.Index, Words: &w}
	}
	return out
}
