package mem

import (
	"testing"
	"testing/quick"
)

func newSys(cores int) *System {
	return testSys(DefaultConfig(cores))
}

// run advances the system until all events drained, returning the final cycle.
func run(s *System, from uint64) uint64 {
	now := from
	for !s.Drained() {
		now++
		s.Step(now)
		if now > from+100000 {
			panic("memory system did not drain")
		}
	}
	return now
}

func TestRegionOf(t *testing.T) {
	cases := map[uint32]Region{
		0x00000000: RegionCode,
		0x3FFFFFFC: RegionCode,
		0x40000000: RegionLocal,
		0x7FFFFFFC: RegionLocal,
		0x80000000: RegionShared,
		0xFFFFFFFC: RegionShared,
	}
	for addr, want := range cases {
		if got := RegionOf(addr); got != want {
			t.Errorf("RegionOf(%#x) = %v, want %v", addr, got, want)
		}
	}
}

func TestLocalStoreLoadRoundTrip(t *testing.T) {
	s := newSys(4)
	addr := uint32(LocalBase + 0x100)
	s.SubmitStore(0, 1, addr, 0xDEADBEEF, Width32, 0)
	run(s, 0)
	var got uint32
	var doneAt uint64
	s.SubmitLoad(10, 1, addr, Width32, false, onLoad(s, func(v uint32, done uint64) {
		got, doneAt = v, done
	}))
	run(s, 10)
	if got != 0xDEADBEEF {
		t.Errorf("loaded %#x", got)
	}
	if doneAt <= 10 {
		t.Errorf("load completed at %d, must be after submission", doneAt)
	}
	// Local banks are private per core: core 0 sees zero at the same address.
	var other uint32
	s.SubmitLoad(20, 0, addr, Width32, false, onLoad(s, func(v uint32, _ uint64) { other = v }))
	run(s, 20)
	if other != 0 {
		t.Errorf("core 0 local bank leaked value %#x", other)
	}
}

func TestSharedRemoteRoundTrip(t *testing.T) {
	s := newSys(16)
	// bank 9 address, accessed from core 2 (different r1 group).
	addr := s.SharedAddr(9, 5)
	if s.BankOwner(addr) != 9 {
		t.Fatalf("BankOwner = %d", s.BankOwner(addr))
	}
	var storeDone uint64
	s.SubmitStore(0, 2, addr, 42, Width32, onDone(s, func(d uint64) { storeDone = d }))
	run(s, 0)
	if storeDone == 0 {
		t.Fatal("store ack not delivered")
	}
	var localDone, remoteDone uint64
	s.SubmitLoad(100, 9, s.SharedAddr(9, 6), Width32, false, onLoad(s, func(_ uint32, d uint64) { localDone = d }))
	var got uint32
	s.SubmitLoad(100, 2, addr, Width32, false, onLoad(s, func(v uint32, d uint64) { got, remoteDone = v, d }))
	run(s, 100)
	if got != 42 {
		t.Errorf("remote load = %d, want 42", got)
	}
	if remoteDone <= localDone {
		t.Errorf("remote access (%d) must be slower than bank-local access (%d)", remoteDone, localDone)
	}
	if s.Stats.SharedRemote != 2 || s.Stats.SharedLocal != 1 {
		t.Errorf("stats: %+v", s.Stats)
	}
}

func TestRemoteLatencyGrowsWithDistance(t *testing.T) {
	s := newSys(64)
	lat := func(from int, bank int) uint64 {
		var done uint64
		start := s.coreUp[from] + s.bankPort[bank] + 1000 // quiesce
		s.SubmitLoad(start, from, s.SharedAddr(bank, 0), Width32, false,
			onLoad(s, func(_ uint32, d uint64) { done = d }))
		run(s, start)
		return done - start
	}
	same := lat(0, 0)      // own bank
	sameR1 := lat(0, 1)    // same r1 group
	sameR2 := lat(0, 5)    // same r2, different r1
	farthest := lat(0, 63) // through r3
	if !(same < sameR1 && sameR1 < sameR2 && sameR2 < farthest) {
		t.Errorf("latencies must grow with distance: %d %d %d %d", same, sameR1, sameR2, farthest)
	}
}

func TestBankContentionSerializes(t *testing.T) {
	s := newSys(4)
	// Four cores hit the same remote bank in the same cycle: completions
	// must be serialized on the bank port.
	dones := map[int]uint64{}
	for c := 1; c < 4; c++ {
		c := c
		s.SubmitLoad(0, c, s.SharedAddr(0, 0), Width32, false,
			onLoad(s, func(_ uint32, d uint64) { dones[c] = d }))
	}
	run(s, 0)
	seen := map[uint64]bool{}
	for c, d := range dones {
		if seen[d] {
			t.Errorf("core %d completion %d collides", c, d)
		}
		seen[d] = true
	}
}

func TestSubWordAccess(t *testing.T) {
	s := newSys(1)
	addr := uint32(LocalBase + 64)
	s.SubmitStore(0, 0, addr, 0x11223344, Width32, 0)
	run(s, 0)
	s.SubmitStore(10, 0, addr+1, 0xAB, Width8, 0)
	run(s, 10)
	var got uint32
	s.SubmitLoad(20, 0, addr, Width32, false, onLoad(s, func(v uint32, _ uint64) { got = v }))
	run(s, 20)
	if got != 0x1122AB44 {
		t.Errorf("byte store merge = %#x", got)
	}
	var b, bs uint32
	s.SubmitLoad(30, 0, addr+3, Width8, false, onLoad(s, func(v uint32, _ uint64) { b = v }))
	s.SubmitLoad(30, 0, addr+3, Width8, true, onLoad(s, func(v uint32, _ uint64) { bs = v }))
	run(s, 30)
	if b != 0x11 || bs != 0x11 {
		t.Errorf("byte loads: %#x %#x", b, bs)
	}
	var h uint32
	s.SubmitStore(40, 0, addr+2, 0x8765, Width16, 0)
	run(s, 40)
	s.SubmitLoad(50, 0, addr+2, Width16, true, onLoad(s, func(v uint32, _ uint64) { h = v }))
	run(s, 50)
	if int32(h) != int32(-30875) { // 0x8765 sign-extended
		t.Errorf("lh sign extension = %#x", h)
	}
}

func TestStoreThenLoadOrdering(t *testing.T) {
	// A load submitted after a store to the same bank must see the value,
	// even when both are still in flight.
	s := newSys(4)
	addr := s.SharedAddr(3, 7)
	s.SubmitStore(0, 0, addr, 77, Width32, 0)
	var got uint32
	s.SubmitLoad(1, 0, addr, Width32, false, onLoad(s, func(v uint32, _ uint64) { got = v }))
	run(s, 1)
	if got != 77 {
		t.Errorf("load raced past store: got %d", got)
	}
}

func TestCVWriteSameAndNextCore(t *testing.T) {
	s := newSys(4)
	addr := uint32(LocalBase + 0x2000)
	var d0, d1 uint64
	s.SubmitCVWrite(0, 2, 2, addr, 5, onDone(s, func(d uint64) { d0 = d }))
	run(s, 0)
	s.SubmitCVWrite(100, 2, 3, addr, 6, onDone(s, func(d uint64) { d1 = d }))
	run(s, 100)
	if v, _ := s.PeekLocal(2, addr); v != 5 {
		t.Errorf("same-core CV write: %d", v)
	}
	if v, _ := s.PeekLocal(3, addr); v != 6 {
		t.Errorf("next-core CV write: %d", v)
	}
	if d1-100 <= d0-0 {
		t.Errorf("next-core CV write (%d cycles) must be slower than same-core (%d)", d1-100, d0)
	}
	if s.Stats.CVWrites != 2 {
		t.Errorf("CVWrites = %d", s.Stats.CVWrites)
	}
}

func TestUnmappedAddresses(t *testing.T) {
	s := newSys(2)
	if s.SubmitLoad(0, 0, s.SharedAddr(2, 0), Width32, false, onLoad(s, func(uint32, uint64) {})) {
		t.Error("load from bank beyond last core must fail")
	}
	if s.SubmitStore(0, 0, LocalBase+DefaultConfig(2).LocalBytes, 0, Width32, 0) {
		t.Error("store past local bank must fail")
	}
	if s.SubmitLoad(0, 0, 0x1000, Width32, false, onLoad(s, func(uint32, uint64) {})) {
		t.Error("data load from code space must fail")
	}
}

func TestLoadCodeAndFetch(t *testing.T) {
	s := newSys(1)
	if err := s.LoadCode(0, []uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if code := s.Code(); len(code) != 3 || code[0] != 1 || code[2] != 3 {
		t.Errorf("Code() = %v, want the image", code)
	}
	if err := s.LoadCode(2, []uint32{9}); err == nil {
		t.Error("unaligned code base must fail")
	}
	if err := s.LoadCode(0, make([]uint32, 1<<20)); err == nil {
		t.Error("oversized code image must fail")
	}
}

// TestCodeBankGrowsWithImage: the code bank is the prefix the loads
// wrote. A fresh system holds no array for it, a load at a high base
// grows it to exactly the image's end, a load past CodeBytes is refused
// and a Reset keeps the array, so reloading a program allocates nothing.
func TestCodeBankGrowsWithImage(t *testing.T) {
	s := newSys(2)
	if n, c, held := CodeWords(s); held || n != 0 || c != 0 {
		t.Fatalf("a fresh system holds a %d/%d-word code array", n, c)
	}
	img := []uint32{1, 2, 3}
	const base = 0x4000
	if err := s.LoadCode(base, img); err != nil {
		t.Fatal(err)
	}
	if n, c, _ := CodeWords(s); n != base/4+len(img) || c != n {
		t.Errorf("a load at %#x grows the prefix to %d words (capacity %d), want exactly %d", base, n, c, base/4+len(img))
	}
	if code := s.Code(); code[0] != 0 || code[base/4] != 1 || code[len(code)-1] != 3 {
		t.Errorf("prefix holds %v… at its ends, want zeros below the base and the image at it", code[:4])
	}

	words := DefaultConfig(2).CodeBytes / 4
	if err := s.LoadCode(4*(words-3), img); err != nil {
		t.Errorf("an image ending at the bank's last word: %v", err)
	}
	err := s.LoadCode(4*(words-2), img)
	if want := "mem: code image of 3 words overflows code bank"; err == nil || err.Error() != want {
		t.Errorf("an image one word past the bank: %v, want %q", err, want)
	}

	short := newSys(2)
	if err := short.LoadCode(0, img); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		short.Reset()
		if err := short.LoadCode(0, img); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Reset and a reload of the same image allocate %v times, want 0", n)
	}
	short.Reset()
	if n, c, _ := CodeWords(short); n != 0 || c != len(img) {
		t.Errorf("after Reset the prefix is %d words of a %d-word array, want 0 of %d", n, c, len(img))
	}
}

// TestResetClearsLoadedCode: Reset clears the code bank up to the highest
// word LoadCode or RestoreGlobalState ever wrote, not the whole bank. A
// stale tail would not show in fetch — the simulator reads the decoded
// image — but in checkpoints, whose code image is the bank minus trailing
// zeros; so the property is that a machine reset from a long program to a
// short one captures the same code as a fresh one.
func TestResetClearsLoadedCode(t *testing.T) {
	long := make([]uint32, 5000)
	for i := range long {
		long[i] = uint32(i + 1)
	}
	short := []uint32{7, 8, 9}
	fresh := newSys(2)
	if err := fresh.LoadCode(0, short); err != nil {
		t.Fatal(err)
	}
	want := fresh.CaptureGlobalState()

	check := func(label string, s *System) {
		t.Helper()
		s.Reset()
		if err := s.LoadCode(0, short); err != nil {
			t.Fatal(err)
		}
		got := s.CaptureGlobalState()
		if len(got.Code) != len(want.Code) {
			t.Fatalf("%s: %d code words captured after Reset to a 3-word program, a fresh system captures %d",
				label, len(got.Code), len(want.Code))
		}
		for i := range want.Code {
			if got.Code[i] != want.Code[i] {
				t.Fatalf("%s: code[%d] = %d, want %d", label, i, got.Code[i], want.Code[i])
			}
		}
	}

	loaded := newSys(2)
	if err := loaded.LoadCode(0, short); err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadCode(4096, long); err != nil { // not from word 0: the mark is an end, not a length
		t.Fatal(err)
	}
	longState := loaded.CaptureGlobalState()
	check("after LoadCode", loaded)

	restored := newSys(2)
	if err := restored.RestoreGlobalState(longState, 0); err != nil {
		t.Fatal(err)
	}
	check("after RestoreGlobalState", restored)
}

func TestLoadShared(t *testing.T) {
	s := newSys(4)
	// span a bank boundary
	addr := s.SharedAddr(0, DefaultConfig(4).SharedBytes/4-1)
	if err := s.LoadShared(addr, []uint32{10, 20}); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.PeekShared(addr); v != 10 {
		t.Errorf("word 0: %d", v)
	}
	if v, _ := s.PeekShared(s.SharedAddr(1, 0)); v != 20 {
		t.Errorf("word 1 must land in bank 1: %d", v)
	}
	if err := s.LoadShared(s.SharedAddr(3, DefaultConfig(4).SharedBytes/4-1), []uint32{1, 2}); err == nil {
		t.Error("overflow past last bank must fail")
	}
}

// Property: sub-word store then load round-trips on arbitrary values.
func TestQuickSubWord(t *testing.T) {
	f := func(w, v uint32, off uint8, half bool) bool {
		addr := uint32(off)
		if half {
			addr &^= 1
			merged := subWordStore(w, v, addr, Width16)
			return subWordLoad(merged, addr, Width16, false) == v&0xFFFF
		}
		merged := subWordStore(w, v, addr, Width8)
		return subWordLoad(merged, addr, Width8, false) == v&0xFF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: events always drain and completion is strictly after submission.
func TestQuickAccessesDrain(t *testing.T) {
	f := func(ops []uint16) bool {
		s := newSys(8)
		now := uint64(0)
		okAll := true
		for _, op := range ops {
			now++
			submitted := now
			core := int(op) % 8
			bank := int(op>>3) % 8
			off := uint32(op>>6) % 64
			addr := s.SharedAddr(bank, off)
			if op&1 == 0 {
				s.SubmitStore(now, core, addr, uint32(op), Width32, onDone(s, func(d uint64) {
					if d <= submitted {
						okAll = false
					}
				}))
			} else {
				s.SubmitLoad(now, core, addr, Width32, false, onLoad(s, func(_ uint32, d uint64) {
					if d <= submitted {
						okAll = false
					}
				}))
			}
		}
		run(s, now)
		return okAll && s.Drained()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRouterDegreeTwo(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.RouterDegree = 2
	s := testSys(cfg)
	// every (core, bank) pair still routes and completes
	for c := 0; c < 8; c++ {
		for b := 0; b < 8; b++ {
			done := uint64(0)
			now := uint64(1000 * (uint64(c*8+b) + 1))
			s.SubmitStore(now, c, s.SharedAddr(b, 3), uint32(c*8+b), Width32,
				onDone(s, func(d uint64) { done = d }))
			for !s.Drained() {
				now++
				s.Step(now)
			}
			if done == 0 {
				t.Fatalf("store %d->%d never completed", c, b)
			}
		}
	}
	for b := 0; b < 8; b++ {
		if v, _ := s.PeekShared(s.SharedAddr(b, 3)); v != uint32(7*8+b) {
			t.Errorf("bank %d: %d", b, v)
		}
	}
}

func TestSingleCoreNoRouters(t *testing.T) {
	s := testSys(DefaultConfig(1))
	var got uint32
	s.SubmitStore(0, 0, s.SharedAddr(0, 0), 9, Width32, 0)
	s.SubmitLoad(1, 0, s.SharedAddr(0, 0), Width32, false,
		onLoad(s, func(v uint32, _ uint64) { got = v }))
	now := uint64(1)
	for !s.Drained() {
		now++
		s.Step(now)
	}
	if got != 9 {
		t.Errorf("got %d", got)
	}
	if s.Stats.SharedRemote != 0 {
		t.Error("single-core accesses are never remote")
	}
}

// TestLinkTable: the named link views are a partition of the one table —
// their lengths sum to it, each starts where the previous one ended (so
// no two overlap) and none can grow into its neighbour — and Reset after
// traffic leaves the table as New made it.
func TestLinkTable(t *testing.T) {
	for _, cores := range []int{1, 4, 64, 65, 256, 1024} {
		for _, perChip := range []int{0, 16} {
			cfg := DefaultConfig(cores)
			cfg.CodeBytes, cfg.LocalBytes, cfg.SharedBytes = 64, 64, 64
			cfg.CoresPerChip, cfg.ChipHopLat = perChip, 12
			s := testSys(cfg)
			views := [][]uint64{s.coreUp, s.coreDown, s.bankPort, s.bankLocal, s.localPort, s.forward, s.backward}
			for _, lv := range [][][]uint64{s.upReq, s.upResp, s.downReq, s.downResp, s.backUp, s.backDown} {
				if len(lv) != len(routerCounts(cores, cfg.RouterDegree)) {
					t.Fatalf("%d cores: a level family has %d levels", cores, len(lv))
				}
				views = append(views, lv...)
			}
			views = append(views, s.chipUpReq, s.chipUpResp, s.chipDownReq, s.chipDownResp)
			at := 0
			for i, v := range views {
				if len(v) != cap(v) {
					t.Errorf("%d cores / chip %d: view %d has len %d cap %d", cores, perChip, i, len(v), cap(v))
				}
				if len(v) > 0 && &v[0] != &s.links[at] {
					t.Errorf("%d cores / chip %d: view %d does not start at link %d", cores, perChip, i, at)
				}
				at += len(v)
			}
			if at != len(s.links) {
				t.Errorf("%d cores / chip %d: views cover %d links of %d", cores, perChip, at, len(s.links))
			}
			if len(s.coreUp) != cores || len(s.backward) != cores || (perChip > 0) != (len(s.chipUpReq) > 0) {
				t.Errorf("%d cores / chip %d: %d core links, %d backward, %d chip links",
					cores, perChip, len(s.coreUp), len(s.backward), len(s.chipUpReq))
			}

			last := cores - 1
			s.SubmitLoad(0, 0, s.SharedAddr(last, 0), Width32, false, onLoad(s, func(uint32, uint64) {}))
			s.SubmitStore(0, last, LocalBase, 1, Width32, 0)
			s.SubmitCVWrite(0, 0, min(1, last), LocalBase, 1, 0)
			_ = s.SendForward(0, 0, min(1, last), Msg{})
			_ = s.SendBackward(0, last, 0, Msg{})
			run(s, 0)
			busy := 0
			for _, l := range s.links {
				if l != 0 {
					busy++
				}
			}
			if busy == 0 {
				t.Fatalf("%d cores / chip %d: the traffic reserved no link", cores, perChip)
			}
			s.Reset()
			fresh := testSys(cfg)
			for i := range s.links {
				if s.links[i] != fresh.links[i] {
					t.Fatalf("%d cores / chip %d: link %d = %d after Reset, fresh is %d",
						cores, perChip, i, s.links[i], fresh.links[i])
				}
			}
		}
	}
}
