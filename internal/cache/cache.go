// Package cache is a content-addressed, on-disk result store: the
// persistence layer behind lbp-serve's result cache. Every simulation
// in this repository is deterministic and digest-verified, so a job's
// outcome is a pure function of its canonical content address
// (sim.CacheKey): a key maps to the one correct payload or to nothing,
// and a lost entry costs one re-simulation. For that an append-only log
// is enough (DESIGN.md §9 has the format and what a crash can leave).
// Put appends one record to the newest of a few segment files,
// <dir>/seg-<id>.log, and points an in-memory index at it. Get reads it
// back and checks its CRC; anything short of the stored bytes is a miss.
// Whole segments are deleted, oldest first, to keep the log under its
// bound. Open rebuilds the index from the segments and locks the
// directory: a log has one writer.
package cache

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// DefaultMaxBytes bounds a store whose caller does not: 256 MiB holds
// on the order of a hundred thousand typical result payloads.
const DefaultMaxBytes = 256 << 20

const segName = "seg-%d.log" // a segment file's name, from its id

// ErrLocked is what Open wraps while another live Store holds the directory.
var ErrLocked = errors.New("locked by another Store, in this process or another (a cache directory has one writer)")

// Stats is a snapshot of the store's size and eviction traffic. Hits
// and misses are the caller's to count; the store only knows bytes.
type Stats struct {
	Entries   int   // payloads currently indexed
	Bytes     int64 // bytes of log on disk, the quantity maxBytes bounds
	Evictions uint64
}

// segment is one log file. Bytes below size never change.
type segment struct {
	f    *os.File
	size int64
}

// entry is the index record of one stored payload.
type entry struct {
	seg  *segment
	off  int64 // of the payload, past the record's header
	size int64
	crc  uint32
}

// Store is one log directory. It is safe for concurrent use by any
// number of goroutines.
type Store struct {
	dir  string
	max  int64
	lock *os.File

	mu        sync.Mutex
	entries   map[string]entry
	segs      []*segment // oldest first; the last one takes the appends
	nextID    uint64
	bytes     int64
	evictions uint64
}

// Open creates (or reopens) the store rooted at dir, bounded to maxBytes
// of log (<= 0 selects DefaultMaxBytes): records already there are indexed,
// segments beyond the bound deleted. Until Close, any other Open of dir,
// from this process or another, fails with an error wrapping ErrLocked.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			err = ErrLocked
		}
		return nil, fmt.Errorf("cache: %s: %w", dir, err)
	}
	s := &Store{dir: dir, max: maxBytes, lock: lock, entries: make(map[string]entry)}
	if err := s.scanDir(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close releases the directory lock and the segment files. A closed
// store misses every Get and fails every Put.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		seg.f.Close()
	}
	return s.lock.Close()
}

// validKey reports whether key is a well-formed content address
// (64 lowercase hex digits, the SHA-256 of the canonical job).
func validKey(key string) bool {
	return len(key) == 64 && strings.Trim(key, "0123456789abcdef") == ""
}

// scanDir opens and indexes every segment, oldest first; the newest (or
// a first, empty one) takes the appends. Other files are left alone.
func (s *Store) scanDir() error {
	files, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	var ids []uint64
	for _, f := range files {
		var id uint64
		if _, err := fmt.Sscanf(f.Name(), segName, &id); err == nil && f.Name() == fmt.Sprintf(segName, id) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		ids = append(ids, 1)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := s.openSegment(id); err != nil {
			return err
		}
	}
	s.evict()
	return nil
}

// openSegment adds segment id (created if need be) as the newest one,
// indexes the records it holds and truncates it to its well-formed prefix.
func (s *Store) openSegment(id uint64) error {
	f, err := os.OpenFile(filepath.Join(s.dir, fmt.Sprintf(segName, id)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	seg := &segment{f: f}
	if seg.size, err = f.Seek(0, io.SeekEnd); err == nil {
		if valid := s.scan(seg); valid < seg.size {
			seg.size, err = valid, f.Truncate(valid)
		}
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("cache: %w", err)
	}
	s.segs = append(s.segs, seg)
	s.bytes += seg.size
	s.nextID = id + 1
	return nil
}

// scan indexes seg's records and returns the length of its well-formed
// prefix: it stops at the first header that does not parse, length the
// file cannot hold, CRC mismatch or missing terminator. Payloads stream
// through the checksum; nothing is allocated on a length field's word.
func (s *Store) scan(seg *segment) (valid int64) {
	r := bufio.NewReader(io.NewSectionReader(seg.f, 0, seg.size))
	sum := crc32.NewIEEE()
	for {
		line, err := r.ReadSlice('\n')
		key, n, crc, ok := parseHeader(line)
		if err != nil || !ok {
			return valid
		}
		off := valid + int64(len(line))
		if n < 0 {
			delete(s.entries, key)
			valid = off
			continue
		}
		if n >= seg.size-off {
			return valid
		}
		sum.Reset()
		if _, err := io.CopyN(sum, r, n); err != nil || sum.Sum32() != crc {
			return valid
		}
		if c, err := r.ReadByte(); err != nil || c != '\n' {
			return valid
		}
		s.entries[key] = entry{seg: seg, off: off, size: n, crc: crc}
		valid = off + n + 1
	}
}

// parseHeader splits "key SP length SP crc LF". Length -1 is a tombstone;
// any other negative, non-decimal or overflowing one is malformed.
func parseHeader(line []byte) (key string, n int64, crc uint32, ok bool) {
	f := strings.Split(strings.TrimSuffix(string(line), "\n"), " ")
	if len(f) != 3 || !validKey(f[0]) {
		return "", 0, 0, false
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	c, err2 := strconv.ParseUint(f[2], 16, 32)
	return f[0], n, uint32(c), err == nil && err2 == nil && n >= -1
}

// Get returns the payload stored under key. Any failure to produce the
// bytes Put was given — no entry, a segment evicted meanwhile, a short
// read, a CRC mismatch — is a miss, and a bad entry is dropped: on-disk
// corruption costs one re-simulation, never an error or a wrong answer.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	oldest := ok && e.seg == s.segs[0] && len(s.segs) > 1
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	// Read outside the lock: bytes below an indexed offset never change,
	// and a segment deleted meanwhile reads as os.ErrClosed.
	data := make([]byte, e.size)
	_, err := e.seg.f.ReadAt(data, e.off)
	good := err == nil && crc32.ChecksumIEEE(data) == e.crc
	if !good || oldest {
		s.mu.Lock()
		if s.entries[key] == e { // not replaced, removed or evicted meanwhile
			if !good {
				_ = s.append(key, nil, true)
			} else if e.seg == s.segs[0] {
				// Second chance: the oldest segment is the next to go. A
				// failed copy leaves the entry where it was.
				_ = s.append(key, data, false)
			}
		}
		s.mu.Unlock()
	}
	if !good {
		return nil, false
	}
	return data, true
}

// Put stores payload under key: one write to the newest segment, then
// the index points at it, so a concurrent Get sees the old payload or the
// new one. Racing Puts on one key carry identical bytes; the later wins.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("cache: malformed key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(key, payload, false)
}

// append writes one record (a header alone for a tombstone) at the end
// of the log, starting a new segment when the newest one is full, and
// updates the index. WriteAt at the known size, not O_APPEND: a write
// that failed half way is overwritten by the next one. Callers hold s.mu.
func (s *Store) append(key string, payload []byte, tombstone bool) error {
	crc, n := crc32.ChecksumIEEE(payload), int64(len(payload))
	if tombstone {
		n = -1
		delete(s.entries, key)
	}
	rec := append(make([]byte, 0, len(key)+32+len(payload)), key...)
	rec = strconv.AppendInt(append(rec, ' '), n, 10)
	rec = strconv.AppendUint(append(rec, ' '), uint64(crc), 16)
	rec = append(rec, '\n')
	if !tombstone {
		rec = append(append(rec, payload...), '\n')
	}
	seg := s.segs[len(s.segs)-1]
	if seg.size > 0 && seg.size+int64(len(rec)) > s.max/8 {
		if err := s.openSegment(s.nextID); err != nil {
			return err
		}
		seg = s.segs[len(s.segs)-1]
	}
	if _, err := seg.f.WriteAt(rec, seg.size); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if !tombstone {
		s.entries[key] = entry{seg: seg, off: seg.size + int64(len(rec)) - n - 1, size: n, crc: crc}
	}
	seg.size += int64(len(rec))
	s.bytes += int64(len(rec))
	s.evict()
	return nil
}

// evict deletes whole segments, oldest first, until the log fits the
// bound; the newest segment — hence the newest entry, even an oversized
// one — always survives. A reader still holding an offset into a deleted
// segment gets os.ErrClosed. Callers hold s.mu.
func (s *Store) evict() {
	for s.bytes > s.max && len(s.segs) > 1 {
		seg := s.segs[0]
		s.segs = s.segs[1:]
		for key, e := range s.entries {
			if e.seg == seg {
				delete(s.entries, key)
				s.evictions++
			}
		}
		s.bytes -= seg.size
		seg.f.Close()
		os.Remove(seg.f.Name())
	}
}

// Remove drops one entry and appends the tombstone that keeps a later
// Open from finding its record again. Dropping an absent key is a no-op,
// so callers can disagree about what is present.
func (s *Store) Remove(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		_ = s.append(key, nil, true)
	}
}

// Stats returns a snapshot of the store's size and eviction counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Entries: len(s.entries), Bytes: s.bytes, Evictions: s.evictions}
}
