package mem

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
)

// nonZeroWords reads every word of both bank families through the
// untimed helpers and counts the non-zero ones.
func nonZeroWords(s *System) int {
	n := 0
	for c := 0; c < s.cfg.Cores; c++ {
		for off := uint32(0); off < s.cfg.LocalBytes/4; off++ {
			if v, _ := s.PeekLocal(c, LocalBase+4*off); v != 0 {
				n++
			}
		}
		for off := uint32(0); off < s.cfg.SharedBytes/4; off++ {
			if v, _ := s.PeekShared(s.SharedAddr(c, off)); v != 0 {
				n++
			}
		}
	}
	return n
}

// TestFreshSystemHoldsNoPages: a new System reads zero everywhere and
// holds no bank page; neither do loads, nor stores of zero.
func TestFreshSystemHoldsNoPages(t *testing.T) {
	s := newSys(4)
	if n := nonZeroWords(s); n != 0 {
		t.Fatalf("fresh system has %d non-zero words", n)
	}
	for c := 0; c < 4; c++ {
		s.SubmitLoad(0, c, LocalBase+8, Width32, false, onLoad(s, func(uint32, uint64) {}))
		s.SubmitLoad(0, c, s.SharedAddr(3-c, 700), Width8, true, onLoad(s, func(uint32, uint64) {}))
		s.SubmitStore(0, c, LocalBase+12, 0, Width32, 0)
		s.SubmitStore(0, c, s.SharedAddr(c, 5)+1, 0, Width8, 0)
	}
	s.SubmitCVWrite(0, 0, 1, LocalBase+16, 0, 0)
	run(s, 0)
	if err := s.LoadShared(s.SharedAddr(2, 0), make([]uint32, 600)); err != nil {
		t.Fatal(err)
	}
	if n := ResidentPages(s); n != 0 {
		t.Errorf("%d pages resident after loads and zero stores only", n)
	}
}

// TestSubWordStoreIntoUntouchedPage: a byte or half-word store into a
// page nothing wrote before merges into zeros.
func TestSubWordStoreIntoUntouchedPage(t *testing.T) {
	s := newSys(2)
	local := uint32(LocalBase + 3*1024 + 6)
	shared := s.SharedAddr(1, 300) + 1
	s.SubmitStore(0, 0, local, 0xBEEF, Width16, 0)
	s.SubmitStore(0, 0, shared, 0x1AB, Width8, 0)
	run(s, 0)
	if v, _ := s.PeekLocal(0, local&^3); v != 0xBEEF0000 {
		t.Errorf("half-word store into an untouched local page reads %#x", v)
	}
	if v, _ := s.PeekShared(shared &^ 3); v != 0xAB00 {
		t.Errorf("byte store into an untouched shared page reads %#x", v)
	}
	if n := ResidentPages(s); n != 2 {
		t.Errorf("%d pages resident, want 2", n)
	}
}

// TestStoreZero: a store of zero clears a written word and leaves an
// unwritten one reading zero, whether or not a page is attached.
func TestStoreZero(t *testing.T) {
	s := newSys(1)
	addr := uint32(LocalBase + 2048)
	s.SubmitStore(0, 0, addr, 0x01020304, Width32, 0)
	s.SubmitStore(0, 0, addr+4, 0x05060708, Width32, 0)
	run(s, 0)
	s.SubmitStore(10, 0, addr, 0, Width32, 0)
	s.SubmitStore(10, 0, addr+5, 0, Width8, 0)
	s.SubmitStore(10, 0, addr+4096, 0, Width32, 0)
	run(s, 10)
	for _, c := range []struct {
		addr, want uint32
	}{{addr, 0}, {addr + 4, 0x05060008}, {addr + 4096, 0}} {
		if v, _ := s.PeekLocal(0, c.addr); v != c.want {
			t.Errorf("word at %#x = %#x, want %#x", c.addr, v, c.want)
		}
	}
}

// TestResetReleasesPages: Reset leaves no page resident and the system
// reading zero everywhere, and the next run reuses the released pages.
func TestResetReleasesPages(t *testing.T) {
	s := newSys(4)
	for c := 0; c < 4; c++ {
		s.SubmitStore(0, c, LocalBase+uint32(c)*1024+4, uint32(c+1), Width32, 0)
		s.SubmitStore(0, c, s.SharedAddr(c, 1000), ^uint32(0), Width32, 0)
	}
	run(s, 0)
	if n := ResidentPages(s); n != 8 {
		t.Fatalf("%d pages resident, want 8", n)
	}
	s.Reset()
	if n := ResidentPages(s); n != 0 {
		t.Errorf("%d pages resident after Reset", n)
	}
	if n := nonZeroWords(s); n != 0 {
		t.Errorf("%d non-zero words survived Reset", n)
	}
	if len(s.free) != 8 {
		t.Errorf("free list holds %d pages after Reset, want 8", len(s.free))
	}
	if err := s.LoadShared(s.SharedAddr(0, 0), []uint32{9}); err != nil {
		t.Fatal(err)
	}
	if len(s.free) != 7 || ResidentPages(s) != 1 {
		t.Errorf("a write after Reset allocated instead of reusing a free page (free %d, resident %d)",
			len(s.free), ResidentPages(s))
	}
	if n := nonZeroWords(s); n != 1 {
		t.Errorf("one word written after Reset, %d read non-zero", n)
	}
}

// TestOddBankSizes: banks smaller than a page, of exactly one page and
// of several pages map their first and last words, keep neighbouring
// banks apart, round-trip through a snapshot's pages, and refuse a page
// past the family or a word past a partial last page.
func TestOddBankSizes(t *testing.T) {
	for _, bankBytes := range []uint32{256, 1024, 4096} {
		cfg := DefaultConfig(3)
		cfg.LocalBytes, cfg.SharedBytes = bankBytes, bankBytes
		s := testSys(cfg)
		last := bankBytes/4 - 1
		for c := 0; c < 3; c++ {
			if err := s.LoadShared(s.SharedAddr(c, 0), []uint32{uint32(10 * c), 0}); err != nil {
				t.Fatal(err)
			}
			if err := s.LoadShared(s.SharedAddr(c, last), []uint32{uint32(10*c + 1)}); err != nil {
				t.Fatal(err)
			}
			s.SubmitCVWrite(0, c, c, LocalBase+4*last, uint32(10*c+2), 0)
		}
		run(s, 0)
		if s.DataMapped(LocalBase+bankBytes) || !s.DataMapped(LocalBase+bankBytes-4) {
			t.Errorf("bank %d: local mapping ends at the wrong word", bankBytes)
		}
		if s.BankOwner(s.SharedAddr(2, last)+4) != -1 {
			t.Errorf("bank %d: a word past the last bank is mapped", bankBytes)
		}
		for c := 0; c < 3; c++ {
			first, _ := s.PeekShared(s.SharedAddr(c, 0))
			end, _ := s.PeekShared(s.SharedAddr(c, last))
			cv, _ := s.PeekLocal(c, LocalBase+4*last)
			if first != uint32(10*c) || end != uint32(10*c+1) || cv != uint32(10*c+2) {
				t.Errorf("bank %d, core %d: first %d last %d cv %d", bankBytes, c, first, end, cv)
			}
		}
		st := s.CaptureGlobalState()
		if len(st.Local) != ResidentPages(s)-len(st.Shared) {
			t.Errorf("bank %d: captured %d local and %d shared pages of %d resident",
				bankBytes, len(st.Local), len(st.Shared), ResidentPages(s))
		}
		r := testSys(cfg)
		if err := r.RestoreGlobalState(decoded(t, st), 0); err != nil {
			t.Fatalf("bank %d: %v", bankBytes, err)
		}
		if st2 := r.CaptureGlobalState(); !reflect.DeepEqual(st2, st) {
			t.Errorf("bank %d: restored system captures differently", bankBytes)
		}
		if ResidentPages(r) != ResidentPages(s) {
			t.Errorf("bank %d: restore holds %d pages, the source %d", bankBytes, ResidentPages(r), ResidentPages(s))
		}
		bad := decoded(t, st)
		bad.Shared[len(bad.Shared)-1].Index = int32(3 * ((last + pageWords) / pageWords))
		if err := testSys(cfg).RestoreGlobalState(bad, 0); err == nil || !strings.Contains(err.Error(), "past the family") {
			t.Errorf("bank %d: a page past the family: %v", bankBytes, err)
		}
		if tail := last%pageWords + 1; tail < pageWords {
			bad := decoded(t, st)
			bad.Shared[0].Words[tail] = 1
			if err := testSys(cfg).RestoreGlobalState(bad, 0); err == nil || !strings.Contains(err.Error(), "past its bank") {
				t.Errorf("bank %d: a word past the bank: %v", bankBytes, err)
			}
		}
	}
}

// decoded is st through gob, as a checkpoint carries it: a copy that
// shares no page with the system st was captured from.
func decoded(t *testing.T, st *State) *State {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	out := new(State)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestoreZeroPagesAttachNothing: pages that read all zeros — a
// stream no capture writes — restore to a system that holds no page,
// and clear whatever the banks held before.
func TestRestoreZeroPagesAttachNothing(t *testing.T) {
	s := testSys(DefaultConfig(2))
	st := s.CaptureGlobalState()
	st.Local = []Page{{Index: 0, Words: new([pageWords]uint32)}, {Index: 70}}
	st.Shared = []Page{{Index: 1, Words: new([pageWords]uint32)}}
	if err := s.LoadShared(s.SharedAddr(1, 5), []uint32{7}); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreGlobalState(st, 0); err != nil {
		t.Fatal(err)
	}
	if n := ResidentPages(s); n != 0 {
		t.Errorf("%d pages resident after restoring zero pages", n)
	}
	if n := nonZeroWords(s); n != 0 {
		t.Errorf("%d non-zero words survived restoring zero pages", n)
	}
}
