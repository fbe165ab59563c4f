package mem

import (
	"cmp"
	"math/bits"
)

// The in-flight event queue.
//
// Every memory access and link message is a timed event, dispatched in
// (cycle, seq) order: seq counts schedule calls, so the events due on
// one cycle run in the order they were scheduled. Nearly every event is
// due within a few hundred cycles of the cycle that schedules it (leads
// stay below 64 cycles at 16 cores; at 64 cores most are 128-255 cycles
// ahead), so the queue is a calendar wheel: bucket cycle%wheelSize is a
// FIFO list of the events due on that cycle. The event with the next seq
// is always appended last, so a bucket is in (cycle, seq) order as it
// stands, and scheduling or dispatching an event costs the same whatever
// else is in flight. Events due past the wheel's window wait in a binary
// heap (far) and move into their bucket when the window reaches them,
// before anything else can be scheduled for that cycle, so they keep
// their place ahead of the later seqs.
//
// The events live in one slab, near and far alike: the buckets and the
// free list are lists of slab indices threaded through event.next, and
// far is a heap of slab indices, so the queue's memory follows the peak
// number of events in flight, and an event is written once, where it is
// scheduled, and never moved. A bucket is a circular list named by its
// last event (whose next is the first), so the wheel itself is one
// index per bucket, a pooled machine's fixed cost.

const (
	wheelSize = 512
	wheelMask = wheelSize - 1
)

// wheel is the queue. The zero value is empty with its window at cycle 0.
type wheel struct {
	// slab holds the events; slot 0 is unused, so index 0 ends a list.
	slab []event
	free int32                  // first free slab slot, 0 = none
	last [wheelSize]int32       // each bucket's last event, 0 = empty
	busy [wheelSize / 64]uint64 // bit b set while bucket b is non-empty
	near int                    // events in the buckets
	// base is the cycle Step last reached: the buckets hold the events
	// due in (base, base+wheelSize].
	base uint64
	// far holds the events due past the window, and any scheduled for a
	// cycle at or before base (none is, when every latency is at least a
	// cycle): those are the earliest in flight and dispatch first.
	far []int32
}

// len returns the number of events in flight.
func (w *wheel) len() int { return w.near + len(w.far) }

// alloc takes a free slab slot and returns its index; the caller writes
// the event into it and links it.
func (w *wheel) alloc() int32 {
	if i := w.free; i != 0 {
		w.free = w.slab[i].next
		return i
	}
	if len(w.slab) == 0 {
		w.slab = append(w.slab, event{})
	}
	w.slab = append(w.slab, event{})
	return int32(len(w.slab) - 1)
}

// release returns a dispatched slot to the free list.
func (w *wheel) release(i int32) {
	w.slab[i].next = w.free
	w.free = i
}

// link queues slot i, whose cycle and seq are set: in its bucket when
// the window covers its cycle, in far otherwise.
func (w *wheel) link(i int32) {
	e := &w.slab[i]
	if e.Cycle-w.base-1 >= wheelSize { // not in (base, base+wheelSize]
		w.farPush(i)
		return
	}
	b := e.Cycle & wheelMask
	if l := w.last[b]; l == 0 {
		e.next = i
		w.busy[b>>6] |= 1 << (b & 63)
	} else {
		e.next = w.slab[l].next
		w.slab[l].next = i
	}
	w.last[b] = i
	w.near++
}

// advance moves the window to (b, b+wheelSize], b >= base, and pulls the
// far events it now covers into their buckets in (cycle, seq) order.
// The caller has dispatched every event due at or before b, so the
// buckets the window gains are empty.
func (w *wheel) advance(b uint64) {
	w.base = b
	for len(w.far) > 0 && w.slab[w.far[0]].Cycle-b-1 < wheelSize {
		w.link(w.farPop())
	}
}

// nextNear returns the earliest cycle with a non-empty bucket.
func (w *wheel) nextNear() (uint64, bool) {
	if w.near == 0 {
		return 0, false
	}
	start := (w.base + 1) & wheelMask
	i := start >> 6
	word := w.busy[i] &^ (1<<(start&63) - 1)
	// The last round re-reads the first word whole: its bits below start
	// are the window's end.
	for range len(w.busy) + 1 {
		if word != 0 {
			b := i<<6 | uint64(bits.TrailingZeros64(word))
			return w.base + 1 + (b-start)&wheelMask, true
		}
		i = (i + 1) % uint64(len(w.busy))
		word = w.busy[i]
	}
	panic("mem: wheel count and bucket bits disagree")
}

// farNext returns the cycle of far's earliest event.
func (w *wheel) farNext() (uint64, bool) {
	if len(w.far) == 0 {
		return 0, false
	}
	return w.slab[w.far[0]].Cycle, true
}

// next returns the cycle of the earliest event in flight.
func (w *wheel) next() (uint64, bool) {
	if c, ok := w.farNext(); ok && c <= w.base {
		return c, true
	}
	if t, ok := w.nextNear(); ok {
		return t, true
	}
	return w.farNext()
}

// appendAll appends every event in flight to evs, in no particular order.
func (w *wheel) appendAll(evs []event) []event {
	for _, i := range w.far {
		evs = append(evs, w.slab[i])
	}
	for _, l := range w.last {
		for i := l; l != 0; {
			i = w.slab[i].next
			evs = append(evs, w.slab[i])
			if i == l {
				break
			}
		}
	}
	return evs
}

// reset empties the wheel and puts its window at (base, base+wheelSize],
// keeping the slab's and the heap's arrays.
func (w *wheel) reset(base uint64) {
	w.slab = w.slab[:0]
	w.free = 0
	w.last = [wheelSize]int32{}
	w.busy = [wheelSize / 64]uint64{}
	w.near = 0
	w.base = base
	w.far = w.far[:0]
}

// Step runs all memory events due at or before cycle `now`. It must be
// called once per machine cycle, before the pipeline stages, so that
// loads observe stores served in earlier cycles. A span of cycles with
// nothing due (the clock fast-forwarded) costs one look at the bucket
// bits, not a visit per cycle.
func (s *System) Step(now uint64) {
	w := &s.events
	for {
		if c, ok := w.farNext(); ok && c <= w.base {
			i := w.farPop()
			s.dispatch(&w.slab[i])
			w.release(i)
			continue
		}
		t, ok := w.nextNear()
		if !ok {
			if t, ok = w.farNext(); !ok {
				break
			}
		}
		if t > now {
			break
		}
		w.advance(t - 1)
		s.dispatchBucket(t)
	}
	if now > w.base {
		w.advance(now)
	}
}

// dispatchBucket runs the events of cycle t's bucket in order. An event
// a dispatch schedules for cycle t joins the list's end and runs too.
func (s *System) dispatchBucket(t uint64) {
	w := &s.events
	b := t & wheelMask
	for w.last[b] != 0 {
		l := w.last[b]
		i := w.slab[l].next
		if i == l {
			w.last[b] = 0
			w.busy[b>>6] &^= 1 << (b & 63)
		} else {
			w.slab[l].next = w.slab[i].next
		}
		w.near--
		// The slot stays taken while it runs: a dispatch that schedules
		// may grow the slab, but the pointer still reads this event.
		s.dispatch(&w.slab[i])
		w.release(i)
	}
}

// Drained reports whether no events remain in flight.
func (s *System) Drained() bool { return s.events.len() == 0 }

// NextEventCycle returns the cycle of the earliest pending event. The
// machine's idle-cycle fast-forward peeks it to know how far the clock
// can jump while every hart is blocked on in-flight memory.
func (s *System) NextEventCycle() (uint64, bool) { return s.events.next() }

// dispatchOrder compares two events by (cycle, seq), for slices.SortFunc.
func dispatchOrder(a, b event) int {
	return cmp.Or(cmp.Compare(a.Cycle, b.Cycle), cmp.Compare(a.Seq, b.Seq))
}

// farBefore reports whether slot i's event orders before slot j's.
func (w *wheel) farBefore(i, j int32) bool {
	a, b := &w.slab[i], &w.slab[j]
	if a.Cycle != b.Cycle {
		return a.Cycle < b.Cycle
	}
	return a.Seq < b.Seq
}

// farPush and farPop keep far a binary min-heap by (cycle, seq).
func (w *wheel) farPush(i int32) {
	w.far = append(w.far, i)
	h := w.far
	k := len(h) - 1
	for k > 0 {
		parent := (k - 1) / 2
		if !w.farBefore(h[k], h[parent]) {
			break
		}
		h[k], h[parent] = h[parent], h[k]
		k = parent
	}
}

func (w *wheel) farPop() int32 {
	h := w.far
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	w.far = h
	k := 0
	for {
		l, r := 2*k+1, 2*k+2
		smallest := k
		if l < n && w.farBefore(h[l], h[smallest]) {
			smallest = l
		}
		if r < n && w.farBefore(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == k {
			break
		}
		h[k], h[smallest] = h[smallest], h[k]
		k = smallest
	}
	return top
}
