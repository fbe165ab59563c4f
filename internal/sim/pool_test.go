package sim

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/asm"
)

// exitSource is the smallest runnable program (the Figure 6 bare-metal
// exit identity): pool churn tests reset and reuse machines hundreds of
// times, so the program must be trivial.
const exitSource = "main:\n\tli ra, 0\n\tli t0, -1\n\tp_ret\n"

func exitProgram(t *testing.T) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(exitSource, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// tinySpec builds distinct pool keys cheaply: the trace ring size is
// part of the key, so varying it yields incompatible specs on the same
// geometry.
func tinySpec(prog *asm.Program, ring int) Spec {
	return Spec{Program: prog, Cores: 1, Trace: TraceSpec{Ring: ring}}
}

// TestPoolEvictsOldestPerKey: the per-key bound drops the oldest idle
// session, keeping the most recently returned machines warm.
func TestPoolEvictsOldestPerKey(t *testing.T) {
	prog := exitProgram(t)
	spec := tinySpec(prog, 8)
	var p Pool
	p.SetCapacity(2, 64)
	var sess [3]*Session
	for i := range sess {
		s, err := p.Get(spec)
		if err != nil {
			t.Fatal(err)
		}
		sess[i] = s
	}
	for _, s := range sess {
		p.Put(s)
	}
	if got := p.Idle(); got != 2 {
		t.Fatalf("idle = %d, want 2 (per-key bound)", got)
	}
	if st := p.Stats(); st.Evictions != 1 || st.Misses != 3 {
		t.Errorf("stats = %+v, want 1 eviction, 3 misses", st)
	}
	// LIFO reuse: newest first, and the oldest (sess[0]) is gone.
	for i, want := range []*Session{sess[2], sess[1]} {
		got, warm, err := p.GetWarm(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !warm || got != want {
			t.Errorf("get %d: warm=%v session=%p, want warm %p", i, warm, got, want)
		}
	}
	got, warm, err := p.GetWarm(spec)
	if err != nil {
		t.Fatal(err)
	}
	if warm || got == sess[0] {
		t.Error("evicted session was handed back out")
	}
}

// TestPoolTotalCapacityEvictsAcrossKeys: the total bound evicts the
// globally oldest idle session, whatever key it belongs to.
func TestPoolTotalCapacityEvictsAcrossKeys(t *testing.T) {
	prog := exitProgram(t)
	specs := []Spec{tinySpec(prog, 1), tinySpec(prog, 2), tinySpec(prog, 3)}
	var p Pool
	p.SetCapacity(4, 2)
	var sess [3]*Session
	for i, sp := range specs {
		s, err := p.Get(sp)
		if err != nil {
			t.Fatal(err)
		}
		sess[i] = s
	}
	for _, s := range sess {
		p.Put(s)
	}
	if got := p.Idle(); got != 2 {
		t.Fatalf("idle = %d, want 2 (total bound)", got)
	}
	// sess[0] (oldest overall) was evicted; the other two are warm.
	if _, warm, err := p.GetWarm(specs[0]); err != nil || warm {
		t.Errorf("spec 0: warm=%v err=%v, want a fresh build", warm, err)
	}
	for i := 1; i < 3; i++ {
		got, warm, err := p.GetWarm(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !warm || got != sess[i] {
			t.Errorf("spec %d: warm=%v session=%p, want warm %p", i, warm, got, sess[i])
		}
	}
}

// TestPoolShrinkOnSetCapacity: tightening the bounds evicts immediately.
func TestPoolShrinkOnSetCapacity(t *testing.T) {
	prog := exitProgram(t)
	var p Pool
	var sess [6]*Session
	for i := range sess {
		s, err := p.Get(tinySpec(prog, 1+i%3))
		if err != nil {
			t.Fatal(err)
		}
		sess[i] = s
	}
	for _, s := range sess {
		p.Put(s)
	}
	if got := p.Idle(); got != 6 {
		t.Fatalf("idle = %d, want 6", got)
	}
	p.SetCapacity(1, 2)
	if got := p.Idle(); got > 2 {
		t.Errorf("idle = %d after SetCapacity(1, 2), want <= 2", got)
	}
	for key, list := range p.free {
		if len(list) > 1 {
			t.Errorf("key %+v holds %d idle sessions, want <= 1", key, len(list))
		}
	}
}

// TestPoolBoundUnderConcurrentGetPut is the regression test for the
// unbounded-growth bug: many goroutines churning Get/Put across several
// geometries must never leave more idle sessions than the bounds allow.
// Runs under -race in tier-1.
func TestPoolBoundUnderConcurrentGetPut(t *testing.T) {
	prog := exitProgram(t)
	specs := []Spec{tinySpec(prog, 1), tinySpec(prog, 2), tinySpec(prog, 3)}
	var p Pool
	p.SetCapacity(2, 3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s, err := p.Get(specs[(g+i)%len(specs)])
				if err != nil {
					t.Error(err)
					return
				}
				if n := p.Idle(); n > 3 {
					t.Errorf("idle = %d mid-churn, want <= 3", n)
					return
				}
				p.Put(s)
			}
		}(g)
	}
	wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	sum := 0
	for key, list := range p.free {
		if len(list) > 2 {
			t.Errorf("key %+v holds %d idle sessions, want <= 2", key, len(list))
		}
		sum += len(list)
	}
	if sum != p.count || p.count > 3 {
		t.Errorf("count = %d (lists sum %d), want consistent and <= 3", p.count, sum)
	}
	st := p.stats
	if st.Hits+st.Misses != 800 {
		t.Errorf("hits %d + misses %d != 800 gets", st.Hits, st.Misses)
	}
	if st.Hits == 0 {
		t.Error("no warm reuse under churn")
	}
}

// TestPoolResetFailureFallsBackCold: a warm machine whose Reset fails
// must not kill the job — the pool drops it, builds a cold machine,
// counts the Get as a miss, and bumps ResetFailures.
func TestPoolResetFailureFallsBackCold(t *testing.T) {
	prog := exitProgram(t)
	spec := tinySpec(prog, 8)
	var p Pool
	warmed, err := p.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(warmed)

	p.resetHook = func(s *Session, prog *asm.Program) error {
		return fmt.Errorf("forced reset failure")
	}
	s, warm, err := p.GetWarm(spec)
	if err != nil {
		t.Fatalf("GetWarm after reset failure: %v (the job must survive)", err)
	}
	if warm || s == warmed {
		t.Errorf("warm=%v session=%p, want a cold build distinct from %p", warm, s, warmed)
	}
	if _, err := s.Run(); err != nil {
		t.Errorf("cold fallback session does not run: %v", err)
	}
	st := p.Stats()
	if st.ResetFailures != 1 || st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 reset failure, 0 hits, 2 misses", st)
	}
	if got := p.Idle(); got != 0 {
		t.Errorf("idle = %d, want 0 (the bad machine must be dropped)", got)
	}

	// With the hook cleared the pool behaves normally again.
	p.resetHook = nil
	p.Put(s)
	again, warm, err := p.GetWarm(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !warm || again != s {
		t.Errorf("recovery get: warm=%v session=%p, want warm %p", warm, again, s)
	}
}

// TestPoolSharesMachineAcrossBudgets: MaxCycles is not a pool key —
// two checkouts differing only in their cycle budget share one warm
// machine, and the second run stops at the second budget, not the
// first's (lbp-serve's fig-19 jobs each carry a distinct maxCycles and
// used to strand one cold machine apiece, bench/README).
func TestPoolSharesMachineAcrossBudgets(t *testing.T) {
	prog, err := asm.Assemble("main:\n\tli t1, 2000\nloop:\n\taddi t1, t1, -1\n\tbne t1, zero, loop\n"+
		"\tli ra, 0\n\tli t0, -1\n\tp_ret\n", asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var p Pool
	first, warm, err := p.GetWarm(Spec{Program: prog, Cores: 1, MaxCycles: 1_000_000})
	if err != nil || warm {
		t.Fatalf("first checkout: warm=%v err=%v", warm, err)
	}
	res, err := first.Run()
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	p.Put(first)

	const budget = 500
	if res.Stats.Cycles <= budget {
		t.Fatalf("program ends after %d cycles; the second budget (%d) must cut it short", res.Stats.Cycles, budget)
	}
	second, warm, err := p.GetWarm(Spec{Program: prog, Cores: 1, MaxCycles: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !warm || second != first {
		t.Fatalf("second checkout: warm=%v session=%p, want the warm machine %p", warm, second, first)
	}
	if got := second.MaxCycles(); got != budget {
		t.Errorf("warm session budget = %d, want %d", got, budget)
	}
	if _, err := second.Run(); err == nil || second.Machine().Cycle() != budget {
		t.Errorf("second run: err=%v at cycle %d, want the budget error at cycle %d",
			err, second.Machine().Cycle(), budget)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss", st)
	}
}
