package mem

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
)

// seqLog is a handler that logs the target of every message it is
// handed: the wheel tests put each event's seq there.
type seqLog []uint64

func (l *seqLog) Deliver(msg Msg, _ uint64) { *l = append(*l, uint64(msg.Tgt)) }
func (*seqLog) LoadValue(uint32, uint32)    {}
func (*seqLog) LoadDone(uint32, uint64)     {}
func (*seqLog) StoreDone(uint32, uint64)    {}

// logSys is a system of cores whose handler is log.
func logSys(cores int, log *seqLog) *System {
	s := New(DefaultConfig(cores))
	s.SetHandler(log)
	return s
}

type pendingEvent struct{ cycle, seq uint64 }

// TestEventWheelOrder schedules random events — leads from 0 (due at or
// before the cycle Step last reached) through the wheel's window to well
// past it — steps with gaps like the ones fast-forward makes, and
// captures and restores the system mid-stream. After every Step the
// dispatched events must be exactly those a sort of everything scheduled
// by (cycle, seq) puts at or before the cycle, in that order, and
// NextEventCycle, Drained and PeakPendingEvents must read what the
// reference says.
func TestEventWheelOrder(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 40))
		var log seqLog
		s := logSys(4, &log)
		var pending []pendingEvent
		peak, now := 0, uint64(0)
		lead := func() uint64 {
			switch r := rng.IntN(100); {
			case r < 2:
				return 0
			case r < 70:
				return 1 + rng.Uint64N(64)
			case r < 90:
				return 64 + rng.Uint64N(wheelSize-64)
			case r < 95:
				return wheelSize - 1 + rng.Uint64N(3)
			default:
				return wheelSize + rng.Uint64N(4*wheelSize)
			}
		}
		for step := 0; step < 3000; step++ {
			switch r := rng.IntN(10); {
			case r < 6:
				now++
			case r < 8:
				// Fast-forward: jump to the next event (or a little short).
				if c, ok := s.NextEventCycle(); ok && c > now {
					now = c - rng.Uint64N(2)
				} else {
					now++
				}
			default:
				now += rng.Uint64N(3 * wheelSize)
			}
			log = log[:0]
			s.Step(now)
			slices.SortFunc(pending, func(a, b pendingEvent) int {
				return cmp.Or(cmp.Compare(a.cycle, b.cycle), cmp.Compare(a.seq, b.seq))
			})
			n := 0
			for n < len(pending) && pending[n].cycle <= now {
				n++
			}
			if len(log) != n {
				t.Fatalf("seed %d step %d: Step(%d) dispatched %d events, %d were due", seed, step, now, len(log), n)
			}
			for i, seq := range log {
				if seq != pending[i].seq {
					t.Fatalf("seed %d step %d: dispatch %d of Step(%d) is seq %d, want seq %d (cycle %d)",
						seed, step, i, now, seq, pending[i].seq, pending[i].cycle)
				}
			}
			pending = pending[n:]
			c, ok := s.NextEventCycle()
			if ok != (len(pending) > 0) || ok && c != pending[0].cycle {
				t.Fatalf("seed %d step %d: NextEventCycle = %d, %v with %d pending", seed, step, c, ok, len(pending))
			}
			if s.Drained() != (len(pending) == 0) {
				t.Fatalf("seed %d step %d: Drained = %v with %d pending", seed, step, s.Drained(), len(pending))
			}
			if rng.IntN(200) == 0 {
				st := s.CaptureGlobalState()
				if !slices.IsSortedFunc(st.Events, func(a, b event) int {
					return cmp.Or(cmp.Compare(a.Cycle, b.Cycle), cmp.Compare(a.Seq, b.Seq))
				}) {
					t.Fatalf("seed %d step %d: captured events are not in (cycle, seq) order", seed, step)
				}
				r := logSys(4, &log)
				if err := r.RestoreGlobalState(decoded(t, st), now); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				s = r
			}
			for k := rng.IntN(6); k > 0; k-- {
				cyc := now + lead()
				e := s.schedule(cyc, evMessage)
				e.Hart = uint32(e.Seq)
				pending = append(pending, pendingEvent{cyc, e.Seq})
				peak = max(peak, len(pending))
			}
			if s.Stats.PeakPendingEvents != peak {
				t.Fatalf("seed %d step %d: PeakPendingEvents = %d, want %d", seed, step, s.Stats.PeakPendingEvents, peak)
			}
		}
	}
}

// TestRestoreSortsEvents: events restored out of order dispatch in
// (cycle, seq) order, two due on one cycle included. (The refusals of
// restore's order checks are TestHostileCheckpoints rows in lbp.)
func TestRestoreSortsEvents(t *testing.T) {
	var log seqLog
	s := logSys(2, &log)
	for _, lead := range []uint64{700, 5, 5, 300} {
		e := s.schedule(10+lead, evMessage)
		e.Hart = uint32(e.Seq)
	}
	s.Step(10)
	st := s.CaptureGlobalState()
	slices.Reverse(st.Events)
	r := logSys(2, &log)
	if err := r.RestoreGlobalState(decoded(t, st), 10); err != nil {
		t.Fatal(err)
	}
	run(r, 10)
	if want := (seqLog{2, 3, 4, 1}); !slices.Equal(log, want) {
		t.Errorf("dispatch order %v, want %v", log, want)
	}
}

// BenchmarkEventWheel is the queue's steady state at the lead times of a
// 64-core machine: four events scheduled per cycle, 1-255 cycles ahead,
// about 512 in flight. ns/op is one event scheduled and dispatched.
func BenchmarkEventWheel(b *testing.B) {
	s := newSys(64)
	rng := rand.New(rand.NewPCG(1, 2))
	leads := make([]uint64, 4096)
	for i := range leads {
		leads[i] = 1 + rng.Uint64N(255)
	}
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.schedule(now+leads[i&4095], evMessage)
		if i&3 == 3 {
			now++
			s.Step(now)
		}
	}
}
