package serve

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sync"
)

// frontIndexEntries bounds the request memo: 4 Ki entries of a 32-byte
// front key and a 64-hex cache key stay under 1 MiB.
const frontIndexEntries = 4 << 10

// frontIndex remembers, for request bytes this process has already
// compiled, the sim.CacheKey they came to — so a repeat goes from
// validate straight to the result cache, with no compiler and no image
// printed into a hash on the way (DESIGN.md §9 "A repeat never
// compiles"). The mapping is a pure function of the request and this
// binary's compiler, so it lives exactly as long as the process and
// needs no invalidation; what it points at may be evicted at any time,
// and then the job takes the cold path under the remembered key.
type frontIndex struct {
	mu   sync.Mutex
	keys map[[sha256.Size]byte]string
}

// get returns the cache key remembered for front, "" if there is none.
func (f *frontIndex) get(front [sha256.Size]byte) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.keys[front]
}

// put records front → key; a full memo first forgets one arbitrary
// entry (its request compiles once more, nothing else).
func (f *frontIndex) put(front [sha256.Size]byte, key string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.keys) >= frontIndexEntries {
		for old := range f.keys {
			delete(f.keys, old)
			break
		}
	}
	f.keys[front] = key
}

// frontKey hashes everything in a validated request that can change its
// result, given the budget the server resolved for it. The two bulk
// fields go in raw behind their lengths; the rest is %#v of the request
// without them, so a field added to JobRequest is covered by name
// unless it is zeroed here as host-side (DeadlineMs). It is syntactic
// where sim.CacheKey is canonical: two spellings of one job (lang ""
// and "c") are two front keys and one cache key.
func (r *JobRequest) frontKey(maxCycles uint64) (front [sha256.Size]byte) {
	h := sha256.New()
	fmt.Fprintf(h, "lbp-front-key-v1 %d %d\n", len(r.Source), len(r.Image))
	io.WriteString(h, r.Source)
	h.Write(r.Image)
	rest := *r
	rest.Source, rest.Image, rest.DeadlineMs, rest.MaxCycles = "", nil, 0, maxCycles
	fmt.Fprintf(h, "%#v", rest)
	h.Sum(front[:0])
	return front
}
