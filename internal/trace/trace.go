// Package trace records the cycle-by-cycle events of an LBP run in a form
// suitable for determinism checking: every event folds into a running
// 64-bit FNV-1a digest, and (optionally) the most recent events are kept
// in a ring buffer for inspection.
//
// Two runs of the same program on the same machine configuration must
// produce identical digests and identical event counts — that is the
// paper's cycle-determinism property (experiment E4 in DESIGN.md).
package trace

import "fmt"

// Kind labels an event class.
type Kind uint8

const (
	KindFetch Kind = iota
	KindCommit
	KindMemReq
	KindMemDone
	KindFork
	KindStart
	KindSignal
	KindJoin
	KindSend
	KindRecv
	KindIO
	numKinds
)

var kindNames = [numKinds]string{
	"fetch", "commit", "memreq", "memdone", "fork", "start",
	"signal", "join", "send", "recv", "io",
}

// String returns a short name for the kind.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one machine event.
type Event struct {
	Cycle uint64
	Core  uint16
	Hart  uint8
	Kind  Kind
	Value uint64 // event-specific payload (pc, address, value, ...)
}

// String formats an event like the paper's example statements
// ("at cycle 467171, core 55, hart 2 ...").
func (e Event) String() string {
	return fmt.Sprintf("at cycle %d, core %d, hart %d: %s %#x",
		e.Cycle, e.Core, e.Hart, e.Kind, e.Value)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Powers of the FNV prime mod 2^64.
// Folding a zero byte is h = (h ^ 0) * prime = h * prime, so the zero
// bytes after a byte merge into its multiplication: a byte followed by
// k zero bytes folds as h = (h ^ b) * prime^(k+1).
const (
	fnvP5 = 0x0caee32a7d4f6a63
	fnvP6 = 0xdc966432edf1c639
	fnvP7 = 0xc5527b8a51d3d2db
	fnvP8 = 0x1efac7090aef4a21
)

// foldEvent folds one event's 32 bytes — Cycle, Core<<8|Hart, Kind and
// Value as four little-endian words — into h, byte-identical to the
// per-byte FNV-1a loop, on one of three fixed schedules. The three high
// bytes of the core/hart word and the seven high bytes of the kind word
// are always zero. A short event (isShort) folds in 8 xor-multiplies;
// otherwise, when Cycle and Value fit in 32 bits, their four high bytes
// are zero and the event folds in 12 with no loop; the rest take
// foldWide's 20.
func foldEvent(h uint64, e *Event) uint64 {
	if isShort(e) {
		return foldShort(h, e)
	}
	c, v := e.Cycle, e.Value
	if (c|v)>>32 != 0 {
		return foldWide(h, e)
	}
	h = (h ^ c&0xFF) * fnvPrime
	h = (h ^ c>>8&0xFF) * fnvPrime
	h = (h ^ c>>16&0xFF) * fnvPrime
	h = (h ^ c>>24) * fnvP5
	h = foldMiddle(h, e)
	h = (h ^ v&0xFF) * fnvPrime
	h = (h ^ v>>8&0xFF) * fnvPrime
	h = (h ^ v>>16&0xFF) * fnvPrime
	return (h ^ v>>24) * fnvP5
}

// isShort reports whether an event takes the 8-multiply schedule: Cycle
// below 2^24, Value below 2^16 and Core below 2^8 — a fetch or commit
// of a program's first 64 KiB on one of its first 256 cores, in its
// first 16M cycles.
func isShort(e *Event) bool {
	return e.Cycle < 1<<24 && e.Value < 1<<16 && e.Core < 1<<8
}

// foldShort folds a short event: c0, c1 ×P, c2 and five zeros ×P⁶, hart
// ×P, core low, core high and five zeros ×P⁷, kind and seven zeros ×P⁸,
// v0 ×P, v1 and six zeros ×P⁷.
func foldShort(h uint64, e *Event) uint64 {
	h = (h ^ e.Cycle&0xFF) * fnvPrime
	h = (h ^ e.Cycle>>8&0xFF) * fnvPrime
	h = (h ^ e.Cycle>>16) * fnvP6
	h = (h ^ uint64(e.Hart)) * fnvPrime
	h = (h ^ uint64(e.Core)) * fnvP7
	h = (h ^ uint64(e.Kind)) * fnvP8
	h = (h ^ e.Value&0xFF) * fnvPrime
	return (h ^ e.Value>>8) * fnvP7
}

// foldWide is foldEvent's schedule for an event whose Cycle or Value
// needs more than 32 bits: all eight bytes of both words (20
// xor-multiplies).
func foldWide(h uint64, e *Event) uint64 {
	h = fold8(h, e.Cycle)
	h = foldMiddle(h, e)
	return fold8(h, e.Value)
}

// fold8 folds the eight little-endian bytes of w.
func fold8(h, w uint64) uint64 {
	h = (h ^ w&0xFF) * fnvPrime
	h = (h ^ w>>8&0xFF) * fnvPrime
	h = (h ^ w>>16&0xFF) * fnvPrime
	h = (h ^ w>>24&0xFF) * fnvPrime
	h = (h ^ w>>32&0xFF) * fnvPrime
	h = (h ^ w>>40&0xFF) * fnvPrime
	h = (h ^ w>>48&0xFF) * fnvPrime
	return (h ^ w>>56) * fnvPrime
}

// foldMiddle folds the core/hart word and the kind word: hart, core low
// byte, core high byte and five zeros, kind and seven zeros.
func foldMiddle(h uint64, e *Event) uint64 {
	h = (h ^ uint64(e.Hart)) * fnvPrime
	h = (h ^ uint64(e.Core&0xFF)) * fnvPrime
	h = (h ^ uint64(e.Core>>8)) * fnvP6
	return (h ^ uint64(e.Kind)) * fnvP8
}

// Recorder accumulates events. The zero value records nothing; use New.
//
// The exported fields are the recorder's whole state, and a machine
// checkpoint saves them as they stand: the digest, the count and the
// ring. Where the ring writes next is not saved, because it follows from
// the count: event n (counting from 0) lands in slot n mod len(Ring), so
// the ring has wrapped once Seen >= len(Ring).
type Recorder struct {
	Sum  uint64  // the running digest (Digest)
	Seen uint64  // events recorded (Count)
	Ring []Event // the last len(Ring) events, event n in slot n mod len(Ring)
}

// New creates a Recorder keeping the last ringSize events (0 = none).
func New(ringSize int) *Recorder {
	r := &Recorder{Sum: fnvOffset}
	if ringSize > 0 {
		r.Ring = make([]Event, ringSize)
	}
	return r
}

// Add folds an event into the digest. The short schedule, the one
// nearly every event of a run takes, is folded here, without a call.
func (r *Recorder) Add(e Event) {
	if isShort(&e) {
		r.Sum = foldShort(r.Sum, &e)
	} else {
		r.Sum = foldEvent(r.Sum, &e)
	}
	if len(r.Ring) > 0 {
		r.Ring[r.Seen%uint64(len(r.Ring))] = e
	}
	r.Seen++
}

// AddBatch folds a slice of events in order, exactly as the equivalent
// Add calls would, keeping the digest in a register across the batch.
// The simulator's one batch is a cycle's trace events that waited behind
// a p_fn for phase B.
func (r *Recorder) AddBatch(evs []Event) {
	h := r.Sum
	for i := range evs {
		h = foldEvent(h, &evs[i])
	}
	r.Sum = h
	if n := uint64(len(r.Ring)); n > 0 {
		for i, e := range evs {
			r.Ring[(r.Seen+uint64(i))%n] = e
		}
	}
	r.Seen += uint64(len(evs))
}

// Digest returns the running digest.
func (r *Recorder) Digest() uint64 { return r.Sum }

// Count returns the number of recorded events.
func (r *Recorder) Count() uint64 { return r.Seen }

// RingSize returns the event-retention capacity (0 = digest-only: the
// recorder folds events but keeps none for Last or WriteChrome).
func (r *Recorder) RingSize() int { return len(r.Ring) }

// Last returns up to n of the most recent events, oldest first.
// Non-positive n returns nil.
func (r *Recorder) Last(n int) []Event {
	size := uint64(len(r.Ring))
	if size == 0 || n <= 0 {
		return nil
	}
	next := r.Seen % size
	var evs []Event
	if r.Seen >= size {
		evs = append(evs, r.Ring[next:]...)
	}
	evs = append(evs, r.Ring[:next]...)
	if n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Same reports whether two recorders saw identical event streams
// (same digest and count).
func Same(a, b *Recorder) bool {
	return a.Digest() == b.Digest() && a.Count() == b.Count()
}
