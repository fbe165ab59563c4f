// Package mem models the LBP memory organization (Figure 13 of the paper):
// per core a code bank, a local bank (hart stacks) and one bank of the
// shared global memory, plus the hierarchical router tree that serves
// remote shared accesses. The paper's fixed r1/r2/r3 tree is the
// 64-core instance of a general degree-d hierarchy: level-k routers
// group d level-(k-1) routers (cores at level 0), so a machine of n
// cores has ceil(log_d(n)) router levels and remote traffic pays one
// hop per level ascended to the lowest common ancestor and one per
// level descended. For n <= 64 at the paper's degree 4 this reproduces
// the fixed tree link-for-link.
//
// Timing model. Every unidirectional link (core->r1, r1->core, r1<->r2,
// r2<->r3, bank ports) carries one transaction per cycle. A transaction
// traversing a sequence of links is serialized on each of them: it takes
// one cycle per hop plus any wait for the link to become free, plus the
// bank access latency at the target bank. The model is deterministic:
// transactions acquire link slots in submission order.
//
// Values are exchanged at bank service time: a store updates the backing
// page when it is served by the bank, a load reads it then. Completion
// (the response arriving back at the requesting core) is reported later,
// after the response traversed the return path.
//
// Events. Every access and link message becomes timed events — a bank
// service, a response delivery — that Step dispatches in (cycle, seq)
// order, seq counting the schedule calls. They wait on a calendar wheel
// of per-cycle FIFO buckets (wheel.go), which holds the next 512 cycles;
// the rare event due later waits in a heap until the window reaches it.
// Scheduling and dispatching an event cost the same however many are in
// flight. An event is plain data: it names its client — the hart whose
// access it is, or the control message it carries — by value, and the
// one Handler set on the System completes it.
//
// Storage. The local and shared banks are backed by 1 KiB pages that
// exist once written (pages.go); the code bank holds only the prefix
// loaded so far, the words up to the end of the highest image.
package mem

import (
	"fmt"

	"repro/internal/perf"
)

// Address space layout.
const (
	CodeBase   = 0x00000000
	LocalBase  = 0x40000000
	SharedBase = 0x80000000
)

// Region identifies which address space an address belongs to.
type Region uint8

const (
	RegionCode Region = iota
	RegionLocal
	RegionShared
	RegionBad
)

// RegionOf classifies an address.
func RegionOf(addr uint32) Region {
	switch {
	case addr < LocalBase:
		return RegionCode
	case addr < SharedBase:
		return RegionLocal
	default:
		return RegionShared
	}
}

// Config sizes the memory system.
type Config struct {
	Cores        int
	CodeBytes    uint32 // size of the (replicated) code bank
	LocalBytes   uint32 // size of each core's local bank
	SharedBytes  uint32 // size of each core's shared bank
	LocalLat     int    // local-bank access latency (cycles at the bank)
	SharedLat    int    // shared-bank access latency (cycles at the bank)
	HopLat       int    // per-link traversal latency
	RouterDegree int    // fan-in of each router level (4 in the paper)

	// Multi-chip extension (Figure 15): when CoresPerChip > 0, cores are
	// grouped into chips of that size; traffic crossing a chip boundary
	// pays ChipHopLat per boundary and serializes on one external link
	// pair per chip (requests and results separately).
	CoresPerChip int
	ChipHopLat   int
}

// ChipOf returns the chip index of a core (0 when single-chip).
func (c *Config) ChipOf(core int) int {
	if c.CoresPerChip <= 0 {
		return 0
	}
	return core / c.CoresPerChip
}

// DefaultConfig returns the paper-inspired parameters for n cores.
func DefaultConfig(n int) Config {
	return Config{
		Cores:        n,
		CodeBytes:    1 << 20, // 1 MiB of code
		LocalBytes:   1 << 16, // 64 KiB local bank (4 hart stacks)
		SharedBytes:  1 << 16, // 64 KiB shared bank per core
		LocalLat:     2,
		SharedLat:    3,
		HopLat:       2,
		RouterDegree: 4,
	}
}

// AccessKind describes a memory transaction for statistics.
type AccessKind uint8

const (
	AccessLoad AccessKind = iota
	AccessStore
)

// Stats aggregates memory traffic counters.
type Stats struct {
	LocalAccesses     uint64 // own local-bank accesses
	SharedLocal       uint64 // own shared-bank accesses (no routing)
	SharedRemote      uint64 // routed shared accesses
	RemoteHops        uint64 // total link hops of routed accesses
	TotalWaitCycles   uint64 // cycles spent waiting for busy links/ports
	CVWrites          uint64 // continuation-value writes (p_swcv)
	PeakPendingEvents int
}

// System is the whole memory subsystem of an LBP machine.
type System struct {
	cfg    Config
	code   []uint32 // the written prefix of the code bank; the words past it, to cap, are zero
	local  banks    // every core's local bank
	shared banks    // every core's shared bank
	free   []*page  // zeroed pages Reset detached, attached again before allocating

	// Link free times. Every unidirectional link of the machine is one
	// word of links — the cycle at which it is next free — and the named
	// fields below are views New carves out of it, in the order they are
	// declared here. That order is the checkpoint format's definition of
	// State.Links; the routing code only ever sees the views.
	links               []uint64
	coreUp, coreDown    []uint64 // core <-> r1
	bankPort, bankLocal []uint64 // shared bank ports (router side, local side)
	localPort           []uint64 // local bank port
	forward             []uint64 // core c -> core c+1 forward link
	backward            []uint64 // core c -> core c-1 backward line
	// Router-tree links, one slot per cycle each, level-indexed: entry k
	// holds the links between the level-(k+1) routers and their parents,
	// one per level-(k+1) router (so upReq[0] is the paper's r1->r2
	// request link array, upReq[1] the r2->r3 one, and deeper levels
	// exist only on machines above 64 cores). Requests and results
	// travel on distinct links in each direction (Section 5.3: an r2
	// receives 4 requests from its r1s AND sends 4 results back each
	// cycle), so the four families are independent.
	upReq, upResp     [][]uint64 // router level k+1 -> level k+2
	downReq, downResp [][]uint64 // router level k+2 -> level k+1
	// Express backward links for machines beyond the paper's 64 cores:
	// long join/result messages climb the same router hierarchy instead
	// of walking the serpentine line core by core (see SendBackward).
	backUp, backDown [][]uint64

	// per-chip external links (multi-chip extension)
	chipUpReq, chipUpResp     []uint64
	chipDownReq, chipDownResp []uint64

	events wheel   // in flight, dispatched in (cycle, seq) order
	h      Handler // completes the events (SetHandler)
	seq    uint64
	Stats  Stats
	Perf   perf.MemCounters
}

// maxTreeDepth bounds the router-tree depth: degree >= 2 and a 32-bit
// core index converge within 32 levels, so routing can use fixed stack
// buffers for the per-level group indices.
const maxTreeDepth = 32

// routerCounts returns the router count of each link level: entry k is
// the number of level-(k+1) routers, and levels stop once a single
// router covers the whole machine (that root has no parent link).
func routerCounts(n, d int) []int {
	var counts []int
	for c := (n + d - 1) / d; c > 1; c = (c + d - 1) / d {
		counts = append(counts, c)
	}
	return counts
}

// New creates a memory system.
func New(cfg Config) *System {
	if cfg.RouterDegree < 2 {
		// 0 means unset; degrees below 2 cannot form a tree. Entry-point
		// validation rejects them, so normalize to the paper's 4 here.
		cfg.RouterDegree = 4
	}
	n := cfg.Cores
	counts := routerCounts(n, cfg.RouterDegree)
	routers, nchips := 0, 0
	for _, c := range counts {
		routers += c
	}
	if cfg.CoresPerChip > 0 {
		nchips = (n + cfg.CoresPerChip - 1) / cfg.CoresPerChip
	}
	s := &System{
		cfg:    cfg,
		local:  newBanks(n, cfg.LocalBytes),
		shared: newBanks(n, cfg.SharedBytes),
		links:  make([]uint64, 7*n+6*routers+4*nchips),
	}
	// Carve the views: three-index slices, so no view can grow into its
	// neighbour.
	rest := s.links
	view := func(k int) []uint64 {
		v := rest[:k:k]
		rest = rest[k:]
		return v
	}
	levels := func() [][]uint64 {
		lv := make([][]uint64, len(counts))
		for k, c := range counts {
			lv[k] = view(c)
		}
		return lv
	}
	s.coreUp, s.coreDown = view(n), view(n)
	s.bankPort, s.bankLocal = view(n), view(n)
	s.localPort = view(n)
	s.forward, s.backward = view(n), view(n)
	s.upReq, s.upResp = levels(), levels()
	s.downReq, s.downResp = levels(), levels()
	s.backUp, s.backDown = levels(), levels()
	s.chipUpReq, s.chipUpResp = view(nchips), view(nchips)
	s.chipDownReq, s.chipDownResp = view(nchips), view(nchips)
	return s
}

// Config returns the configuration the system was built with.
func (s *System) Config() Config { return s.cfg }

// LoadCode installs the (replicated) code image.
func (s *System) LoadCode(base uint32, words []uint32) error {
	if base%4 != 0 {
		return fmt.Errorf("mem: code base %#x not word aligned", base)
	}
	idx := uint64(base-CodeBase) / 4
	if idx+uint64(len(words)) > uint64(s.cfg.CodeBytes/4) {
		return fmt.Errorf("mem: code image of %d words overflows code bank", len(words))
	}
	s.growCode(int(idx) + len(words))
	copy(s.code[idx:], words)
	return nil
}

// growCode extends the code prefix to n words. Past the prefix the
// backing array is zero (Reset clears before it truncates), so a prefix
// that fits reslices; one that does not gets an array of exactly n
// words: a pooled machine holds the largest image it ran, not the bank.
func (s *System) growCode(n int) {
	switch {
	case n <= len(s.code):
	case n <= cap(s.code):
		s.code = s.code[:n]
	default:
		code := make([]uint32, n)
		copy(code, s.code)
		s.code = code
	}
}

// LoadShared installs initialized data words at an absolute shared address.
func (s *System) LoadShared(addr uint32, words []uint32) error {
	for i, w := range words {
		a := addr + uint32(4*i)
		bank, off, ok := s.sharedSlot(a)
		if !ok {
			return fmt.Errorf("mem: data address %#x outside shared space", a)
		}
		s.write(&s.shared, bank, off, w)
	}
	return nil
}

// Code returns the written prefix of the code bank, for the machine to
// predecode (every word past it is zero): the simulator fetches from its
// decoded image, never from the bank. The slice aliases the bank and
// must not be written.
func (s *System) Code() []uint32 { return s.code }

// sharedSlot maps a shared address to (bank, word offset).
func (s *System) sharedSlot(addr uint32) (int, uint32, bool) {
	if RegionOf(addr) != RegionShared {
		return 0, 0, false
	}
	off := addr - SharedBase
	bank := int(off / s.cfg.SharedBytes)
	if bank >= s.cfg.Cores {
		return 0, 0, false
	}
	return bank, (off % s.cfg.SharedBytes) / 4, true
}

// localSlot maps a local address to a word offset in the core's local bank.
func (s *System) localSlot(addr uint32) (uint32, bool) {
	if RegionOf(addr) != RegionLocal {
		return 0, false
	}
	off := addr - LocalBase
	if off >= s.cfg.LocalBytes {
		return 0, false
	}
	return off / 4, true
}

// BankOwner returns the core whose shared bank holds addr, or -1.
func (s *System) BankOwner(addr uint32) int {
	bank, _, ok := s.sharedSlot(addr)
	if !ok {
		return -1
	}
	return bank
}

// SharedAddr returns the absolute address of word index off in bank b.
func (s *System) SharedAddr(bank int, off uint32) uint32 {
	return SharedBase + uint32(bank)*s.cfg.SharedBytes + off*4
}

// alloc reserves the first slot >= tmin on a link and returns it. class
// attributes any wait for a busy slot to the link family (Perf.LinkWait);
// the counters never feed back into timing.
func (s *System) alloc(link *uint64, tmin uint64, class perf.LinkClass) uint64 {
	t := tmin
	if *link > t {
		w := *link - t
		s.Stats.TotalWaitCycles += w
		s.Perf.LinkWait[class] += w
		t = *link
	}
	*link = t + 1
	return t
}

// PeekLocal reads a word from a core's local bank without timing
// (inspection/debug only).
func (s *System) PeekLocal(core int, addr uint32) (uint32, bool) {
	off, ok := s.localSlot(addr)
	if !ok {
		return 0, false
	}
	return s.local.load(core, off), true
}

// PeekShared reads a word from the shared space without timing.
func (s *System) PeekShared(addr uint32) (uint32, bool) {
	bank, off, ok := s.sharedSlot(addr)
	if !ok {
		return 0, false
	}
	return s.shared.load(bank, off), true
}

// PokeShared writes a word to the shared space without timing (device and
// loader use).
func (s *System) PokeShared(addr uint32, v uint32) bool {
	bank, off, ok := s.sharedSlot(addr)
	if !ok {
		return false
	}
	s.write(&s.shared, bank, off, v)
	return true
}
