package sim

import (
	"sync"

	"repro/internal/asm"
	"repro/internal/lbp"
)

// poolKey identifies the sessions that are interchangeable after a
// Reset: same machine configuration and same observer settings.
// The cycle budget is not part of it — a warm checkout adopts the
// requesting Spec's MaxCycles.
// The resolved lbp.Config is comparable (it is all scalars), so the key
// can be a map key directly.
type poolKey struct {
	cfg     lbp.Config
	profile bool
	digest  bool
	ring    int
}

func specKey(spec *Spec, cfg lbp.Config) poolKey {
	return poolKey{
		cfg:     cfg,
		profile: spec.Profile,
		digest:  spec.Trace.Digest,
		ring:    spec.Trace.Ring,
	}
}

// Pool capacities: a long sweep over many geometries must not pin every
// machine it ever built in memory, so every Pool is bounded.
const (
	poolPerKey = 4
	poolTotal  = 64
)

// PoolStats counts pool traffic. Hits are Gets served by a warm
// machine, Misses are Gets that built a fresh one (including sessions
// with devices, which always bypass the pool), Evictions are idle
// sessions dropped to respect the capacity bounds. ResetFailures are
// warm machines that refused their Reset on checkout; each one is
// dropped and replaced by a cold build, and the Get recounts as a
// miss.
type PoolStats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	ResetFailures uint64
}

// pooled is one idle session with its admission sequence number; seq
// orders evictions (smallest = oldest).
type pooled struct {
	s   *Session
	seq uint64
}

// Pool reuses warm machines across runs: Get returns a reset session
// for the Spec (building a fresh one only when no compatible machine is
// free), Put returns a finished session for reuse. Sweeps that build
// the same machine geometry hundreds of times skip the per-run
// allocation of banks, link queues and reorder buffers.
//
// Capacity is bounded: at most poolPerKey idle sessions per
// configuration and poolTotal across all configurations. Put beyond a
// bound drops the oldest idle session, so a sweep over many geometries
// keeps only the most recently used machines warm.
//
// A Pool is safe for concurrent use. Sessions with devices bypass the
// pool entirely (they cannot be reset).
type Pool struct {
	mu    sync.Mutex
	free  map[poolKey][]pooled
	seq   uint64
	count int
	stats PoolStats

	// resetHook, when non-nil, replaces Session.Reset on warm
	// checkout; tests use it to force reset failures.
	resetHook func(*Session, *asm.Program) error
}

// dropOldestLocked removes the oldest idle session of one key list and
// stores the shrunk list back. Callers hold p.mu.
func (p *Pool) dropOldestLocked(key poolKey, list []pooled) {
	copy(list, list[1:])
	list[len(list)-1] = pooled{}
	list = list[:len(list)-1]
	if len(list) == 0 {
		delete(p.free, key)
	} else {
		p.free[key] = list
	}
	p.count--
	p.stats.Evictions++
}

// evictOldestLocked drops the globally oldest idle session. Lists are
// appended in seq order, so the oldest entry of every list is its
// front. Callers hold p.mu.
func (p *Pool) evictOldestLocked() {
	var oldestKey poolKey
	var oldest []pooled
	found := false
	for key, list := range p.free {
		if !found || list[0].seq < oldest[0].seq {
			oldestKey, oldest, found = key, list, true
		}
	}
	if found {
		p.dropOldestLocked(oldestKey, oldest)
	}
}

// Get returns a session for the Spec, reusing a pooled machine when one
// with an identical configuration is free.
func (p *Pool) Get(spec Spec) (*Session, error) {
	s, _, err := p.GetWarm(spec)
	return s, err
}

// GetWarm is Get, also reporting whether the session came from the pool
// (warm = a reset machine was reused rather than built). A warm machine
// whose Reset fails is dropped — the Get recounts as a miss, builds a
// cold machine instead, and bumps ResetFailures — so one bad pooled
// machine never kills the job it happened to be handed to.
func (p *Pool) GetWarm(spec Spec) (*Session, bool, error) {
	if len(spec.Devices) > 0 {
		p.mu.Lock()
		p.stats.Misses++
		p.mu.Unlock()
		s, err := New(spec)
		return s, false, err
	}
	key := specKey(&spec, spec.machineConfig())
	p.mu.Lock()
	reset := p.resetHook
	var s *Session
	if list := p.free[key]; len(list) > 0 {
		s = list[len(list)-1].s
		list[len(list)-1] = pooled{}
		list = list[:len(list)-1]
		if len(list) == 0 {
			delete(p.free, key)
		} else {
			p.free[key] = list
		}
		p.count--
	}
	p.mu.Unlock()
	if reset == nil {
		reset = (*Session).Reset
	}
	if s != nil {
		err := reset(s, spec.Program)
		if err == nil {
			s.spec.MaxCycles = spec.MaxCycles
			p.mu.Lock()
			p.stats.Hits++
			p.mu.Unlock()
			return s, true, nil
		}
		p.mu.Lock()
		p.stats.ResetFailures++
		p.mu.Unlock()
	}
	p.mu.Lock()
	p.stats.Misses++
	p.mu.Unlock()
	s, err := New(spec)
	return s, false, err
}

// Put returns a finished session to the pool, evicting the oldest idle
// session when a capacity bound is hit. Sessions that cannot be reset
// (devices, resumed from a checkpoint) are silently dropped.
func (p *Pool) Put(s *Session) {
	if s == nil || len(s.spec.Devices) > 0 || s.spec.Program == nil {
		return
	}
	key := specKey(&s.spec, s.cfg)
	p.mu.Lock()
	if p.free == nil {
		p.free = make(map[poolKey][]pooled)
	}
	if list := p.free[key]; len(list) >= poolPerKey {
		p.dropOldestLocked(key, list)
	} else if p.count >= poolTotal {
		p.evictOldestLocked()
	}
	p.seq++
	p.free[key] = append(p.free[key], pooled{s: s, seq: p.seq})
	p.count++
	p.mu.Unlock()
}

// Idle returns the number of idle sessions currently pooled.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}

// Stats returns a snapshot of the pool traffic counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
