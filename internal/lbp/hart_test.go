package lbp

import (
	"fmt"
	"math/bits"
	"testing"
	"unsafe"

	"repro/internal/isa"
)

// Unit tests of the hart-internal structures.

func newTestHart() (*Machine, *hart) {
	m := New(DefaultConfig(1))
	return m, m.harts[1]
}

func TestRemoteRBFIFO(t *testing.T) {
	_, h := newTestHart()
	for i := uint32(0); i < 5; i++ {
		if !h.pushRemote(0, 100+i, 8) {
			t.Fatalf("push %d failed", i)
		}
	}
	for i := uint32(0); i < 5; i++ {
		v, ok := h.popRemote(0)
		if !ok || v != 100+i {
			t.Errorf("pop %d = %d,%v", i, v, ok)
		}
	}
	if _, ok := h.popRemote(0); ok {
		t.Error("empty buffer must not pop")
	}
}

func TestRemoteRBBounds(t *testing.T) {
	_, h := newTestHart()
	if h.pushRemote(-1, 1, 8) || h.pushRemote(99, 1, 8) {
		t.Error("out-of-range buffer index must fail")
	}
	for i := 0; i < 3; i++ {
		h.pushRemote(1, uint32(i), 3)
	}
	if h.pushRemote(1, 9, 3) {
		t.Error("overflow past depth must fail")
	}
	if _, ok := h.popRemote(7); ok {
		_, h2 := newTestHart()
		_ = h2
		t.Error("pop from empty high index")
	}
}

func TestFreeHartAfterOrder(t *testing.T) {
	m := New(DefaultConfig(1))
	c := m.cores[0]
	// all free: after hart 1 -> hart 2
	if got := c.freeHartAfter(1); got.idx != 2 {
		t.Errorf("after 1 -> %d, want 2", got.idx)
	}
	// occupy 2 and 3: wraps to 0
	c.harts[2].state = hartRunning
	c.harts[3].state = hartRunning
	if got := c.freeHartAfter(1); got.idx != 0 {
		t.Errorf("after 1 with 2,3 busy -> %d, want 0", got.idx)
	}
	// everything busy: nil
	c.harts[0].state = hartRunning
	c.harts[1].state = hartRunning
	if got := c.freeHartAfter(1); got != nil {
		t.Errorf("all busy -> %v", got.idx)
	}
}

func TestHartLifecycle(t *testing.T) {
	m, h := newTestHart()
	h.allocate(&m.cfg, 0, 10)
	if h.state != hartAllocated {
		t.Error("allocate must reserve the hart")
	}
	if h.regs[2] != m.cfg.SPInit(1) {
		t.Errorf("sp = %#x, want %#x", h.regs[2], m.cfg.SPInit(1))
	}
	if !h.hasPred {
		t.Error("forked harts wait for the predecessor signal")
	}
	h.start(0x40, 20)
	if h.state != hartRunning || h.pc != 0x40 || !h.pcValid {
		t.Errorf("start: %+v", h.state)
	}
	h.free(30)
	if h.state != hartFree || h.pcValid {
		t.Error("free must release the hart")
	}
}

// TestROBRingWraps: the reorder buffer is a ring of slots, reused in
// order. Positions and slots convert both ways across the wrap, and a
// popped slot is the next one the ring hands out once it is full.
func TestROBRingWraps(t *testing.T) {
	m, h := newTestHart()
	n := m.cfg.ROBEntries
	for range n {
		h.robPush()
	}
	for range 5 {
		h.robPopFront()
	}
	if s := h.robPush(); s != 0 {
		t.Errorf("first push after 5 pops took slot %d, want 0 (the ring wraps)", s)
	}
	if h.robHead != 5 || h.robN != n-4 {
		t.Errorf("head %d, %d entries; want 5, %d", h.robHead, h.robN, n-4)
	}
	for i := range n {
		if s := h.robSlot(i); s != (5+i)%n || h.robAge(s) != i {
			t.Errorf("position %d: slot %d, back to position %d", i, s, h.robAge(s))
		}
	}
	if h.robFront() != &h.rob[5] {
		t.Error("the front is not the head slot")
	}
}

// TestUopSize: a uop is 32 bytes, so two share a cache line and none
// straddles one (each ring starts 512-byte aligned in the slab), and a
// 1024-core machine's slab is 2 MiB.
func TestUopSize(t *testing.T) {
	if n := unsafe.Sizeof(uop{}); n > 32 {
		t.Errorf("uop is %d bytes, want <= 32", n)
	}
}

func TestWakeCapturesValues(t *testing.T) {
	_, h := newTestHart()
	const producer = 2
	consumer, other := &h.rob[3], &h.rob[4]
	*consumer = uop{dep1: producer, dep2: producer}
	*other = uop{dep1: 1, dep2: noSlot}
	h.it = 1<<3 | 1<<4
	h.wake(producer, 777)
	if consumer.dep1 != noSlot || consumer.dep2 != noSlot {
		t.Error("deps must clear on wake")
	}
	if consumer.src1 != 777 || consumer.src2 != 777 {
		t.Errorf("captured %d/%d", consumer.src1, consumer.src2)
	}
	if !consumer.ready() {
		t.Error("consumer must be ready")
	}
	if other.dep1 != 1 || other.src1 != 0 || other.ready() {
		t.Error("a uop waiting on another producer must keep waiting")
	}
}

// TestITMaskAgeOrder: the instruction table is a mask over ring slots,
// and itAge turns it into rename order from the ring's head, across the
// wrap, so its lowest bit is the oldest entry.
func TestITMaskAgeOrder(t *testing.T) {
	_, h := newTestHart()
	n := len(h.rob)
	h.robHead, h.robN = n-2, 5 // slots n-2, n-1, 0, 1, 2
	h.it = 1<<(n-1) | 1<<0 | 1<<2
	if got, want := h.itAge(), uint64(1<<1|1<<2|1<<4); got != want {
		t.Errorf("itAge = %b, want %b", got, want)
	}
	h.it &^= 1 << 0 // slot 0 issues
	if got, want := h.itAge(), uint64(1<<1|1<<4); got != want {
		t.Errorf("itAge after removing slot 0 = %b, want %b", got, want)
	}
	if h.itFull(&Config{ITEntries: 3}) || !h.itFull(&Config{ITEntries: 2}) {
		t.Error("itFull must count the mask's bits")
	}
}

// checkSlots asserts what the slot numbers of every hart of m promise:
// each instruction-table bit is an occupied, unissued ring slot; each
// register's last writer is occupied, writes that register and has not
// written back; the result buffer names an occupied slot; and no
// dependence names a free slot or a younger uop.
func checkSlots(t testing.TB, m *Machine, label string) {
	t.Helper()
	for _, h := range m.harts {
		var occupied uint64
		for i := range h.robN {
			occupied |= 1 << h.robSlot(i)
		}
		where := func() string {
			return fmt.Sprintf("%s: cycle %d hart %d (head %d, %d entries)", label, m.cycle, h.gid, h.robHead, h.robN)
		}
		if h.it&^occupied != 0 {
			t.Fatalf("%s: instruction table %b names free slots (occupied %b)", where(), h.it, occupied)
		}
		for o := h.it; o != 0; o &= o - 1 {
			s := bits.TrailingZeros64(o)
			if h.rob[s].issued {
				t.Fatalf("%s: instruction-table slot %d is issued", where(), s)
			}
		}
		for r, s := range h.lastWriter {
			if s == noSlot {
				continue
			}
			if occupied&(1<<s) == 0 {
				t.Fatalf("%s: x%d's last writer is free slot %d", where(), r, s)
			}
			if u := &h.rob[s]; !u.d.WritesRd() || int(u.d.Inst.Rd) != r || u.done {
				t.Fatalf("%s: x%d's last writer in slot %d is %s, done=%v", where(), r, s,
					isa.Disassemble(u.d.Inst, u.pc), u.done)
			}
		}
		if h.exec != noSlot && occupied&(1<<h.exec) == 0 {
			t.Fatalf("%s: the result buffer names free slot %d", where(), h.exec)
		}
		for i := range h.robN {
			s := h.robSlot(i)
			u := &h.rob[s]
			if int(u.slot) != s {
				t.Fatalf("%s: slot %d holds a uop that names slot %d", where(), s, u.slot)
			}
			for _, dep := range []uint8{u.dep1, u.dep2} {
				if dep != noSlot && (occupied&(1<<dep) == 0 || h.robAge(int(dep)) >= i) {
					t.Fatalf("%s: slot %d depends on slot %d, free or not older", where(), s, dep)
				}
			}
		}
	}
}

// StepCheckingSlots single-steps a loaded machine to its end with
// Advance(1), checking the slot invariants (checkSlots) before the
// first cycle and after every one, and returns the run's end: its
// result or its fault.
func StepCheckingSlots(t testing.TB, m *Machine, label string) (*Result, error) {
	t.Helper()
	for {
		checkSlots(t, m, label)
		res, err := m.Advance(1)
		if res != nil || err != nil {
			checkSlots(t, m, label)
			return res, err
		}
	}
}

// TestSlotInvariants single-steps the X_PAR corpus under checkSlots and
// holds each run to the uninterrupted run's end: same cycle, digest and
// fault. The five 64-hart matmuls go through the same checker in
// TestSlotInvariantsMatmul64 (package lbp_test).
func TestSlotInvariants(t *testing.T) {
	for _, x := range XParPrograms {
		straight := loadTraced(t, x)
		_, serr := straight.Run(2_000_000)
		m := loadTraced(t, x)
		_, err := StepCheckingSlots(t, m, x.Name)
		if fmt.Sprint(err) != fmt.Sprint(serr) || m.cycle != straight.cycle ||
			m.Trace().Digest() != straight.Trace().Digest() {
			t.Errorf("%s: stepped run ended at cycle %d digest %#x (%v), uninterrupted at %d / %#x (%v)",
				x.Name, m.cycle, m.Trace().Digest(), err, straight.cycle, straight.Trace().Digest(), serr)
		}
	}
}
