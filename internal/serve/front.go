package serve

import (
	"crypto/sha256"
	"sync"
)

// frontIndexEntries bounds the request memo: 4 Ki entries of a 32-byte
// body hash and a 64-hex cache key stay under 1 MiB.
const frontIndexEntries = 4 << 10

// frontIndex remembers, for request bodies this process has already
// validated and compiled, the sim.CacheKey they came to — keyed by the
// SHA-256 of the exact body bytes, so a repeat goes from the read
// straight to the result cache, with no JSON decode, validate or
// compiler on the way (DESIGN.md §9 "A repeat is never decoded"). Every
// step it skips is a pure function of those bytes and the server's
// fixed Config, so the mapping lives exactly as long as the process and
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
