package lbp

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/trace"
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
	c.harts[2].State = hartRunning
	c.harts[3].State = hartRunning
	if got := c.freeHartAfter(1); got.idx != 0 {
		t.Errorf("after 1 with 2,3 busy -> %d, want 0", got.idx)
	}
	// everything busy: nil
	c.harts[0].State = hartRunning
	c.harts[1].State = hartRunning
	if got := c.freeHartAfter(1); got != nil {
		t.Errorf("all busy -> %v", got.idx)
	}
}

func TestHartLifecycle(t *testing.T) {
	m, h := newTestHart()
	h.allocate(&m.cfg, 0, 10)
	if h.State != hartAllocated {
		t.Error("allocate must reserve the hart")
	}
	if h.Regs[2] != m.cfg.SPInit(1) {
		t.Errorf("sp = %#x, want %#x", h.Regs[2], m.cfg.SPInit(1))
	}
	if !h.HasPred {
		t.Error("forked harts wait for the predecessor signal")
	}
	h.start(0x40, 20)
	if h.State != hartRunning || h.PC != 0x40 || !h.PCValid {
		t.Errorf("start: %+v", h.State)
	}
	h.free(30)
	if h.State != hartFree || h.PCValid {
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
	if h.RobHead != 5 || h.RobN != n-4 {
		t.Errorf("head %d, %d entries; want 5, %d", h.RobHead, h.RobN, n-4)
	}
	for i := range n {
		if s := h.robSlot(i); s != (5+i)%n || h.robAge(s) != i {
			t.Errorf("position %d: slot %d, back to position %d", i, s, h.robAge(s))
		}
	}
	if h.robFront() != &h.Rob[5] {
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

// TestSavedStateIsPlainData: the exported fields of hart, uop, core, the
// trace recorder and the registered devices are what a checkpoint saves
// (state.go), so none of them, at any depth,
// is a pointer, interface, func, map or chan, which gob cannot save as
// it stands. A host-side link or cache is an unexported field. (mem's
// TestEventIsPlainData holds the memory events to the same rule.)
func TestSavedStateIsPlainData(t *testing.T) {
	fields := 0
	var walk func(name string, typ reflect.Type)
	walk = func(name string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				if f := typ.Field(i); f.IsExported() {
					fields++
					walk(name+"."+f.Name, f.Type)
				}
			}
		case reflect.Array, reflect.Slice:
			walk(name+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Func, reflect.Map, reflect.Chan:
			t.Errorf("%s is a %s", name, typ.Kind())
		}
	}
	for _, v := range []any{hart{}, uop{}, core{}, trace.Recorder{}, Sensor{}, Actuator{}} {
		typ := reflect.TypeOf(v)
		walk(typ.Name(), typ)
	}
	if fields == 0 {
		t.Error("no saved field found")
	}
}

func TestWakeCapturesValues(t *testing.T) {
	_, h := newTestHart()
	const producer = 2
	consumer, other := &h.Rob[3], &h.Rob[4]
	*consumer = uop{Dep1: producer, Dep2: producer}
	*other = uop{Dep1: 1, Dep2: noSlot}
	h.IT = 1<<3 | 1<<4
	h.wake(producer, 777)
	if consumer.Dep1 != noSlot || consumer.Dep2 != noSlot {
		t.Error("deps must clear on wake")
	}
	if consumer.Src1 != 777 || consumer.Src2 != 777 {
		t.Errorf("captured %d/%d", consumer.Src1, consumer.Src2)
	}
	if !consumer.ready() {
		t.Error("consumer must be ready")
	}
	if other.Dep1 != 1 || other.Src1 != 0 || other.ready() {
		t.Error("a uop waiting on another producer must keep waiting")
	}
}

// TestITMaskAgeOrder: the instruction table is a mask over ring slots,
// and itAge turns it into rename order from the ring's head, across the
// wrap, so its lowest bit is the oldest entry.
func TestITMaskAgeOrder(t *testing.T) {
	_, h := newTestHart()
	n := len(h.Rob)
	h.RobHead, h.RobN = n-2, 5 // slots n-2, n-1, 0, 1, 2
	h.IT = 1<<(n-1) | 1<<0 | 1<<2
	if got, want := h.itAge(), uint64(1<<1|1<<2|1<<4); got != want {
		t.Errorf("itAge = %b, want %b", got, want)
	}
	h.IT &^= 1 << 0 // slot 0 issues
	if got, want := h.itAge(), uint64(1<<1|1<<4); got != want {
		t.Errorf("itAge after removing slot 0 = %b, want %b", got, want)
	}
	if h.itFull(&Config{ITEntries: 3}) || !h.itFull(&Config{ITEntries: 2}) {
		t.Error("itFull must count the mask's bits")
	}
}

// StepChecking single-steps a loaded machine to its end with
// Advance(1), holding it to check (check.go) before the first cycle and
// after every one, and returns the run's end: its result or its fault.
func StepChecking(t testing.TB, m *Machine, label string) (*Result, error) {
	t.Helper()
	for {
		if err := m.check(); err != nil {
			t.Fatalf("%s: cycle %d: %v", label, m.cycle, err)
		}
		res, err := m.Advance(1)
		if res != nil || err != nil {
			if err := m.check(); err != nil {
				t.Fatalf("%s: cycle %d: %v", label, m.cycle, err)
			}
			return res, err
		}
	}
}

// TestSlotInvariants single-steps the X_PAR corpus under check and
// holds each run to the uninterrupted run's end: same cycle, digest and
// fault. The five 64-hart matmuls go through the same checker in
// TestSlotInvariantsMatmul64 (package lbp_test).
func TestSlotInvariants(t *testing.T) {
	for _, x := range XParPrograms {
		straight := loadTraced(t, x)
		_, serr := straight.Run(2_000_000)
		m := loadTraced(t, x)
		_, err := StepChecking(t, m, x.Name)
		if fmt.Sprint(err) != fmt.Sprint(serr) || m.cycle != straight.cycle ||
			m.Trace().Digest() != straight.Trace().Digest() {
			t.Errorf("%s: stepped run ended at cycle %d digest %#x (%v), uninterrupted at %d / %#x (%v)",
				x.Name, m.cycle, m.Trace().Digest(), err, straight.cycle, straight.Trace().Digest(), serr)
		}
	}
}
