package mem

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestEventIsPlainData: an event names its client by value, so it holds
// nothing the collector must trace or a checkpoint cannot save as it
// stands — no pointer, interface, func, map, slice, string or chan —
// and it stays within a cache line (it was 72 bytes with two interface
// clients).
func TestEventIsPlainData(t *testing.T) {
	var walk func(name string, typ reflect.Type)
	walk = func(name string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(name+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(name+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Func,
			reflect.Map, reflect.Slice, reflect.String, reflect.Chan:
			t.Errorf("%s is a %s", name, typ.Kind())
		}
	}
	walk("event", reflect.TypeOf(event{}))
	if n := unsafe.Sizeof(event{}); n > 64 {
		t.Errorf("an event is %d bytes, want at most 64", n)
	}
}

// testHandler completes events by calling what a test registered under
// the event's client number: onLoad and onDone hand out numbers in
// registration order, and client 0 of either calls nothing — an access
// whose completion the test does not watch.
type testHandler struct {
	loads []func(v uint32, done uint64)
	vals  []uint32 // each load's parked bank value
	dones []func(done uint64)
}

func (h *testHandler) LoadValue(c uint32, v uint32) { h.vals[c] = v }

func (h *testHandler) LoadDone(c uint32, done uint64) {
	if f := h.loads[c]; f != nil {
		f(h.vals[c], done)
	}
}

func (h *testHandler) StoreDone(c uint32, done uint64) {
	if f := h.dones[c]; f != nil {
		f(done)
	}
}

func (h *testHandler) Deliver(msg Msg, done uint64) { h.StoreDone(msg.Tgt, done) }

// testSys is New with a testHandler installed.
func testSys(cfg Config) *System {
	s := New(cfg)
	s.SetHandler(&testHandler{loads: make([]func(uint32, uint64), 1), vals: make([]uint32, 1), dones: make([]func(uint64), 1)})
	return s
}

// onLoad registers fn as a load client of s's handler, called with the
// loaded value and the completion cycle; it returns the client number.
func onLoad(s *System, fn func(v uint32, done uint64)) uint32 {
	h := s.h.(*testHandler)
	h.loads, h.vals = append(h.loads, fn), append(h.vals, 0)
	return uint32(len(h.loads) - 1)
}

// onDone registers fn as a store, CV-write or message client of s's
// handler, called with the completion cycle.
func onDone(s *System, fn func(done uint64)) uint32 {
	h := s.h.(*testHandler)
	h.dones = append(h.dones, fn)
	return uint32(len(h.dones) - 1)
}

// onMsg is a message to onDone's client.
func onMsg(s *System, fn func(done uint64)) Msg { return Msg{Tgt: onDone(s, fn)} }
