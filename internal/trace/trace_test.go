package trace

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestDigestDeterministic(t *testing.T) {
	mk := func() *Recorder {
		r := New(0)
		for i := 0; i < 100; i++ {
			r.Add(Event{Cycle: uint64(i), Core: uint16(i % 4), Hart: uint8(i % 4),
				Kind: Kind(i % int(numKinds)), Value: uint64(i * 7)})
		}
		return r
	}
	a, b := mk(), mk()
	if !Same(a, b) {
		t.Error("identical streams must have identical digests")
	}
	if a.Count() != 100 {
		t.Errorf("count = %d", a.Count())
	}
}

func TestDigestSensitive(t *testing.T) {
	a, b := New(0), New(0)
	a.Add(Event{Cycle: 1, Core: 0, Hart: 0, Kind: KindFetch, Value: 4})
	b.Add(Event{Cycle: 1, Core: 0, Hart: 0, Kind: KindFetch, Value: 8})
	if Same(a, b) {
		t.Error("different values must differ")
	}
	c, d := New(0), New(0)
	c.Add(Event{Cycle: 1, Core: 2, Hart: 0, Kind: KindCommit})
	d.Add(Event{Cycle: 1, Core: 0, Hart: 2, Kind: KindCommit})
	if Same(c, d) {
		t.Error("core/hart swap must differ")
	}
}

func TestRing(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Add(Event{Cycle: uint64(i)})
	}
	last := r.Last(4)
	if len(last) != 4 {
		t.Fatalf("got %d events", len(last))
	}
	for i, e := range last {
		if e.Cycle != uint64(6+i) {
			t.Errorf("event %d: cycle %d", i, e.Cycle)
		}
	}
	if got := r.Last(2); len(got) != 2 || got[0].Cycle != 8 {
		t.Errorf("Last(2) = %v", got)
	}
	empty := New(0)
	if empty.Last(5) != nil {
		t.Error("recorder without ring must return nil")
	}
}

// Regression test: Last with a non-positive n used to slice with a
// negative offset (evs[len(evs)-n:] for n < 0) and panic.
func TestLastNonPositive(t *testing.T) {
	r := New(4)
	for i := 0; i < 6; i++ {
		r.Add(Event{Cycle: uint64(i)})
	}
	if got := r.Last(-1); got != nil {
		t.Errorf("Last(-1) = %v, want nil", got)
	}
	if got := r.Last(0); got != nil {
		t.Errorf("Last(0) = %v, want nil", got)
	}
}

// Last must stay oldest-first across the exact ring-wrap boundary:
// when the ring has wrapped, the result stitches the tail of the
// buffer (oldest) before its head (newest).
func TestLastAcrossWrap(t *testing.T) {
	r := New(4)
	for i := 0; i < 4; i++ { // exactly full: next == 0, full == true
		r.Add(Event{Cycle: uint64(i)})
	}
	if got := r.Last(4); len(got) != 4 || got[0].Cycle != 0 || got[3].Cycle != 3 {
		t.Errorf("Last(4) at exact fill = %v", got)
	}
	r.Add(Event{Cycle: 4}) // overwrite the oldest slot
	got := r.Last(4)
	if len(got) != 4 {
		t.Fatalf("Last(4) after wrap: %d events", len(got))
	}
	for i, e := range got {
		if e.Cycle != uint64(1+i) {
			t.Errorf("event %d: cycle %d, want %d", i, e.Cycle, 1+i)
		}
	}
	if got := r.Last(2); len(got) != 2 || got[0].Cycle != 3 || got[1].Cycle != 4 {
		t.Errorf("Last(2) after wrap = %v", got)
	}
}

func TestKindStringOutOfRange(t *testing.T) {
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("Kind(200).String() = %q", got)
	}
	if got := numKinds.String(); got != fmt.Sprintf("kind(%d)", uint8(numKinds)) {
		t.Errorf("numKinds.String() = %q", got)
	}
	if got := KindIO.String(); got != "io" {
		t.Errorf("KindIO.String() = %q", got)
	}
}

func TestRingPartial(t *testing.T) {
	r := New(8)
	r.Add(Event{Cycle: 1})
	r.Add(Event{Cycle: 2})
	last := r.Last(8)
	if len(last) != 2 || last[0].Cycle != 1 || last[1].Cycle != 2 {
		t.Errorf("partial ring: %v", last)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Cycle: 467171, Core: 55, Hart: 2, Kind: KindMemReq, Value: 106688}
	want := "at cycle 467171, core 55, hart 2: memreq 0x1a0c0"
	if got := e.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Property: order matters — any transposition of two distinct events
// changes the digest.
func TestQuickOrderSensitivity(t *testing.T) {
	f := func(v1, v2 uint64) bool {
		if v1 == v2 {
			return true
		}
		a, b := New(0), New(0)
		a.Add(Event{Value: v1})
		a.Add(Event{Value: v2})
		b.Add(Event{Value: v2})
		b.Add(Event{Value: v1})
		return !Same(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refFold is the straight-line reference FNV-1a fold the fixed-schedule
// fold in Add/AddBatch must match byte for byte.
func refFold(h uint64, evs []Event) uint64 {
	for _, e := range evs {
		for _, w := range [4]uint64{e.Cycle, uint64(e.Core)<<8 | uint64(e.Hart), uint64(e.Kind), e.Value} {
			for i := 0; i < 8; i++ {
				h ^= w & 0xFF
				h *= fnvPrime
				w >>= 8
			}
		}
	}
	return h
}

func TestDigestMatchesReference(t *testing.T) {
	cases := [][]Event{
		nil,
		{{}}, // all-zero event: a 32-byte zero run
		{{}, {}, {}},
		{{Cycle: 1, Core: 2, Hart: 3, Kind: KindFork, Value: 4}},
		{{Cycle: 0xFFFFFFFFFFFFFFFF, Value: 0xFFFFFFFFFFFFFFFF, Core: 0xFFFF, Hart: 0xFF, Kind: Kind(255)}},
		{{Cycle: 0x0100}, {Value: 0x01000000_00000000}}, // interior and leading zeros
		{{Cycle: 0x00FF00FF00FF00FF, Value: 0xFF00FF00FF00FF00}},
	}
	for i, evs := range cases {
		ra, rb := New(0), New(0)
		for _, e := range evs {
			ra.Add(e)
		}
		rb.AddBatch(evs)
		want := refFold(fnvOffset, evs)
		if ra.Digest() != want {
			t.Errorf("case %d: Add digest %#x, reference %#x", i, ra.Digest(), want)
		}
		if rb.Digest() != want {
			t.Errorf("case %d: AddBatch digest %#x, reference %#x", i, rb.Digest(), want)
		}
	}
	if err := quick.Check(func(evs []Event) bool {
		r := New(0)
		r.AddBatch(evs)
		return r.Digest() == refFold(fnvOffset, evs)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Both sides of each limit of the short schedule: Cycle 2^24,
	// Value 2^16, Core 256 — each row short but for the one field.
	edge := Event{Cycle: 1<<24 - 1, Core: 255, Hart: 3, Kind: KindCommit, Value: 1<<16 - 1}
	for i, e := range []Event{
		edge,
		{Cycle: 1 << 24, Core: 255, Hart: 3, Kind: KindCommit, Value: 1<<16 - 1},
		{Cycle: 1<<24 - 1, Core: 255, Hart: 3, Kind: KindCommit, Value: 1 << 16},
		{Cycle: 1<<24 - 1, Core: 256, Hart: 3, Kind: KindCommit, Value: 1<<16 - 1},
		{Cycle: 1 << 24, Core: 256, Hart: 3, Kind: KindCommit, Value: 1 << 16},
	} {
		evs := []Event{edge, e, e}
		ra, rb := New(0), New(0)
		for _, e := range evs {
			ra.Add(e)
		}
		rb.AddBatch(evs)
		want := refFold(fnvOffset, evs)
		if ra.Digest() != want || rb.Digest() != want {
			t.Errorf("limit row %d (%v): Add %#x, AddBatch %#x, reference %#x", i, e, ra.Digest(), rb.Digest(), want)
		}
	}
	// quick generates uniform random words, so nearly every event takes
	// the wide schedule; also sweep sparse events, the 32-bit schedule.
	for cyc := uint64(0); cyc < 300; cyc += 7 {
		evs := []Event{
			{Cycle: cyc, Kind: KindCommit, Value: cyc * cyc},
			{Cycle: cyc, Core: 1, Kind: KindFetch},
		}
		r := New(0)
		r.AddBatch(evs)
		if want := refFold(fnvOffset, evs); r.Digest() != want {
			t.Fatalf("cycle %d: digest %#x, reference %#x", cyc, r.Digest(), want)
		}
	}
	// Both schedules, chosen per event, over long random streams: events
	// whose Cycle or Value reaches 2^32 (the wide schedule) mixed with
	// 32-bit ones, and cores past 255 (a non-zero core high byte).
	rng := rand.New(rand.NewPCG(40, 1))
	word := func() uint64 {
		switch rng.IntN(4) {
		case 0:
			return rng.Uint64()
		case 1:
			return 1<<32 + rng.Uint64N(1<<16) // just past 32 bits
		default:
			return rng.Uint64N(1 << 32)
		}
	}
	for round := 0; round < 200; round++ {
		evs := make([]Event, 1+rng.IntN(64))
		for i := range evs {
			evs[i] = Event{Cycle: word(), Core: uint16(rng.IntN(4096)), Hart: uint8(rng.IntN(256)),
				Kind: Kind(rng.IntN(256)), Value: word()}
			if rng.IntN(2) == 0 {
				evs[i].Core = uint16(256 + rng.IntN(1<<16-256))
			}
		}
		ra, rb := New(0), New(0)
		for _, e := range evs {
			ra.Add(e)
		}
		rb.AddBatch(evs)
		want := refFold(fnvOffset, evs)
		if ra.Digest() != want || rb.Digest() != want {
			t.Fatalf("round %d: Add %#x, AddBatch %#x, reference %#x", round, ra.Digest(), rb.Digest(), want)
		}
	}
}

// BenchmarkAddBatch times the fold of 256 events on each of its three
// schedules: short, where Cycle < 2^24, Value < 2^16 and Core < 256
// (pc-like values, the schedule real traces take), narrow, where Cycle
// and Value fit in 32 bits but Value is past 16, and wide, where every
// Value is past 32 bits.
func BenchmarkAddBatch(b *testing.B) {
	for _, sched := range []struct {
		name  string
		value func(i int) uint64
	}{
		{"short", func(i int) uint64 { return uint64(0x1000 + 4*i) }},
		{"narrow", func(i int) uint64 { return uint64(0x10000 + 4*i) }},
		{"wide", func(i int) uint64 { return 1<<32 + uint64(i)*2654435761 }},
	} {
		evs := make([]Event, 256)
		for i := range evs {
			evs[i] = Event{Cycle: uint64(4000 + i), Core: uint16(i % 64), Hart: uint8(i % 4),
				Kind: Kind(i % int(numKinds)), Value: sched.value(i)}
		}
		b.Run(sched.name, func(b *testing.B) {
			r := New(0)
			b.SetBytes(int64(len(evs) * 32))
			for i := 0; i < b.N; i++ {
				r.AddBatch(evs)
			}
		})
	}
}
