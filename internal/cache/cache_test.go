package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// keyOf builds a well-formed content address from any seed.
func keyOf(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return hex.EncodeToString(sum[:])
}

// payload builds a payload of exactly n bytes (n >= len(seed)).
func payload(seed string, n int) []byte {
	return []byte(seed + strings.Repeat("x", n-len(seed)))
}

// record is the log's encoding of one entry, written out independently
// of Store.append so the format is pinned by the tests that scan it.
func record(key string, p []byte) []byte {
	return []byte(fmt.Sprintf("%s %d %x\n%s\n", key, len(p), crc32.ChecksumIEEE(p), p))
}

func open(t testing.TB, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func put(t testing.TB, s *Store, key string, p []byte) {
	t.Helper()
	if err := s.Put(key, p); err != nil {
		t.Fatal(err)
	}
}

// segFiles lists the store's segment files.
func segFiles(t testing.TB, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	key := keyOf("a")
	want := []byte(`{"cycles":42}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on an empty store")
	}
	put(t, s, key, want)
	got, ok := s.Get(key)
	if !ok || string(got) != string(want) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
	}
	if st := s.Stats(); st.Entries != 1 || st.Bytes != int64(len(record(key, want))) || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 1 entry in a %d-byte log", st, len(record(key, want)))
	}
	// Any bytes are a payload, the empty one included.
	put(t, s, keyOf("empty"), nil)
	if got, ok := s.Get(keyOf("empty")); !ok || len(got) != 0 {
		t.Errorf("empty payload: Get = %q, %v", got, ok)
	}
}

func TestBadKeyRejected(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for _, key := range []string{"", "xyz", keyOf("a")[:63], keyOf("a") + "0", "../" + keyOf("a")[3:],
		strings.ToUpper(keyOf("a")), keyOf("a")[:32] + " " + keyOf("a")[33:], keyOf("a")[:63] + "\n"} {
		if err := s.Put(key, []byte("{}")); err == nil {
			t.Errorf("Put(%q) accepted a malformed key", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) hit on a malformed key", key)
		}
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("refused keys left something behind: %+v", st)
	}
}

// TestCorruptEntryIsMiss: a payload that rots on disk — even into other
// well-formed JSON — reads as a miss, the bad entry is dropped for good,
// and the next Put repairs it.
func TestCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	key, good := keyOf("corrupt"), []byte(`{"cycles":1151,"digest":1234}`)
	put(t, s, keyOf("neighbour"), good)
	put(t, s, key, good)
	seg := segFiles(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.LastIndex(data, []byte("1234"))
	data[at] = '7' // still JSON, no longer the result
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); ok {
		t.Fatalf("corrupt entry served as a hit: %s", got)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Errorf("corrupt entry still indexed: %+v", st)
	}
	if _, ok := s.Get(keyOf("neighbour")); !ok {
		t.Error("the record before the corrupt one was lost with it")
	}
	put(t, s, key, good)
	if got, ok := s.Get(key); !ok || string(got) != string(good) {
		t.Fatalf("after repair: Get = %q, %v", got, ok)
	}
	// A restart cuts the segment at the bad record: what came before it
	// survives, the repair written after it is one more re-simulation.
	s.Close()
	s2 := open(t, dir, 0)
	if _, ok := s2.Get(keyOf("neighbour")); !ok {
		t.Error("reopen lost the record before the corrupt one")
	}
	if got, ok := s2.Get(key); ok && string(got) != string(good) {
		t.Errorf("reopen serves the corrupt payload: %s", got)
	}
}

// TestSegmentEviction: eviction order is segment order, a hit in the
// oldest segment buys the entry a second chance, and the log never
// outgrows its bound.
func TestSegmentEviction(t *testing.T) {
	keys := make([]string, 7)
	for i := range keys {
		keys[i] = keyOf(fmt.Sprint("evict-", i))
	}
	// One 100-byte payload per segment (a segment holds maxBytes/8), four
	// records within the bound. (A CRC with leading zeros prints a digit
	// or two shorter; half a record of slack covers it.)
	rec := int64(len(record(keys[0], payload(keys[0], 100))))
	dir := t.TempDir()
	s := open(t, dir, 4*rec+rec/2)
	for _, k := range keys[:4] {
		put(t, s, k, payload(k, 100))
	}
	if st := s.Stats(); st.Evictions != 0 || st.Entries != 4 || len(segFiles(t, dir)) != 4 {
		t.Fatalf("four records within the bound: %+v in %d segments", st, len(segFiles(t, dir)))
	}
	// keys[0] sits in the oldest segment: the hit copies it to a new
	// one, which pushes the log over the bound and its old segment out.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("oldest entry missing before any eviction")
	}
	if st := s.Stats(); st.Evictions != 0 || st.Entries != 4 {
		t.Errorf("after the second chance: %+v, want 4 entries and no eviction", st)
	}
	// Three more Puts drop three segments: those of keys[1], keys[2] and
	// keys[3], in that order. keys[0], stored before them all, outlives
	// them because of its hit: recency is position in the log.
	for i, k := range keys[4:] {
		put(t, s, k, payload(k, 100))
		if _, ok := s.Get(keys[i+1]); ok {
			t.Errorf("Put %d: the entry of the oldest segment, keys[%d], survived", i+4, i+1)
		}
		if st := s.Stats(); st.Evictions != uint64(i+1) || st.Entries != 4 || st.Bytes > 4*rec+rec/2 {
			t.Errorf("Put %d: stats = %+v, want %d evictions, 4 entries, <= %d bytes", i+4, st, i+1, 4*rec+rec/2)
		}
	}
	for _, i := range []int{0, 4, 5, 6} {
		if got, ok := s.Get(keys[i]); !ok || string(got) != string(payload(keys[i], 100)) {
			t.Errorf("keys[%d] evicted out of segment order", i)
		}
	}
}

// TestBoundHolds: after every Put the log fits the bound, whatever the
// mix of sizes, unless the newest entry alone is larger than it.
func TestBoundHolds(t *testing.T) {
	const bound = 4096
	s := open(t, t.TempDir(), bound)
	for i := 0; i < 400; i++ {
		k := keyOf(fmt.Sprint("mix-", i))
		n := 64 + (i*37)%900
		if i%97 == 96 {
			n = 3 * bound
		}
		put(t, s, k, payload(k, n))
		st := s.Stats()
		if st.Bytes > bound && (st.Entries != 1 || n <= bound) {
			t.Fatalf("Put %d (%d bytes): %+v exceeds the bound %d", i, n, st, bound)
		}
		if _, ok := s.Get(k); !ok {
			t.Fatalf("Put %d: the newest entry did not survive", i)
		}
	}
}

// TestOversizedEntrySurvivesAlone: a single payload larger than the
// bound is kept (evicting it would make the cache useless), but it is
// the only survivor. maxBytes 1 is that case for every payload:
// exactly the newest entry is kept (serve.TestCacheEviction relies on it).
func TestOversizedEntrySurvivesAlone(t *testing.T) {
	for _, bound := range []int64{50, 1} {
		s := open(t, t.TempDir(), bound)
		a, b := keyOf("a"), keyOf("b")
		put(t, s, a, payload(a, 200))
		if _, ok := s.Get(a); !ok {
			t.Fatal("oversized sole entry evicted")
		}
		put(t, s, b, payload(b, 200))
		if _, ok := s.Get(a); ok {
			t.Error("older oversized entry survived a newer Put")
		}
		if _, ok := s.Get(b); !ok {
			t.Error("newest entry evicted")
		}
		if st := s.Stats(); st.Entries != 1 || st.Evictions != 1 {
			t.Errorf("bound %d: stats = %+v, want exactly the newest entry and 1 eviction", bound, st)
		}
	}
}

// TestReopenFindsEntries: the index is rebuilt from the log, so a cache
// outlives its process; of two records under one key the later wins.
func TestReopenFindsEntries(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1<<20)
	key, twice := keyOf("persist"), keyOf("twice")
	want := []byte(`{"cycles":7}`)
	put(t, s, key, want)
	put(t, s, twice, []byte("first"))
	for i := 0; i < 3000; i++ { // enough to span segments
		k := keyOf(fmt.Sprint("fill-", i))
		put(t, s, k, payload(k, 100))
	}
	put(t, s, twice, []byte("second"))
	before := s.Stats()
	if n := len(segFiles(t, dir)); n < 3 {
		t.Fatalf("%d segments, want the entries spread over several", n)
	}
	// Foreign files are ignored: not indexed, not deleted.
	foreign := []string{"README", "seg-1.log.bak", "seg-01.log", "seg-x.log", filepath.Join("ab", keyOf("old")+".json")}
	for _, name := range foreign {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := open(t, dir, 1<<20)
	if st := s2.Stats(); st.Entries != before.Entries || st.Bytes != before.Bytes {
		t.Errorf("reopened stats = %+v, want %+v", st, before)
	}
	if got, ok := s2.Get(key); !ok || string(got) != string(want) {
		t.Fatalf("reopened Get = %q, %v; want %q, true", got, ok, want)
	}
	if got, ok := s2.Get(twice); !ok || string(got) != "second" {
		t.Errorf("reopened Get of a key stored twice = %q, %v; want the later record", got, ok)
	}
	for _, name := range foreign {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != "not a segment" {
			t.Errorf("foreign file %s: %q, %v", name, got, err)
		}
	}
	// A smaller bound at reopen is enforced at once, oldest segments first.
	s2.Close()
	s3 := open(t, dir, 1<<17)
	if st := s3.Stats(); st.Bytes > 1<<17 || st.Evictions == 0 {
		t.Errorf("reopened under a smaller bound: %+v", st)
	}
	if got, ok := s3.Get(twice); !ok || string(got) != "second" {
		t.Errorf("the newest record did not survive the smaller bound: %q, %v", got, ok)
	}
	if _, ok := s3.Get(keyOf("fill-0")); ok {
		t.Error("a record of the oldest segment survived the smaller bound")
	}
	if got, ok := s3.Get(key); !ok || string(got) != string(want) {
		t.Errorf("the entry hit before the restart lost its second chance: %q, %v", got, ok)
	}
}

// TestRemoveSurvivesReopen: a removed key's record is still in the log;
// the tombstone after it keeps the scan from indexing it again.
func TestRemoveSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	gone, back := keyOf("gone"), keyOf("back")
	put(t, s, gone, []byte("v1"))
	s.Remove(gone)
	put(t, s, back, []byte("v1"))
	s.Remove(back)
	s.Remove(back) // absent: a no-op
	put(t, s, back, []byte("v2"))
	if _, ok := s.Get(gone); ok {
		t.Fatal("removed entry still served")
	}
	s.Close()
	s2 := open(t, dir, 0)
	if got, ok := s2.Get(gone); ok {
		t.Errorf("reopen resurrected a removed entry: %q", got)
	}
	if got, ok := s2.Get(back); !ok || string(got) != "v2" {
		t.Errorf("Put after Remove, reopened: Get = %q, %v; want v2", got, ok)
	}
	if st := s2.Stats(); st.Entries != 1 {
		t.Errorf("reopened stats = %+v, want 1 entry", st)
	}
}

// TestTornTailTruncated: whatever a crash leaves after the last whole
// record is cut off at Open, and the store appends after the cut.
func TestTornTailTruncated(t *testing.T) {
	whole := record(keyOf("whole"), []byte("kept"))
	next := record(keyOf("next"), []byte("payload-of-the-torn-record"))
	for name, tail := range map[string][]byte{
		"torn header":    next[:40],
		"torn payload":   next[:len(next)-9],
		"no terminator":  next[:len(next)-1],
		"wrong crc":      bytes.Replace(next, []byte("torn"), []byte("worn"), 1),
		"garbage":        []byte("\x00\x00\x00\x00 not a record\n"),
		"bad terminator": append(append([]byte{}, next[:len(next)-1]...), 'X', '\n'),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seg := filepath.Join(dir, "seg-7.log")
			if err := os.WriteFile(seg, append(append([]byte{}, whole...), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			s := open(t, dir, 0)
			if got, ok := s.Get(keyOf("whole")); !ok || string(got) != "kept" {
				t.Fatalf("the whole record before the tear: Get = %q, %v", got, ok)
			}
			if _, ok := s.Get(keyOf("next")); ok {
				t.Error("a torn record is served")
			}
			if info, err := os.Stat(seg); err != nil || info.Size() != int64(len(whole)) {
				t.Errorf("segment is %d bytes after Open, want %d (cut at the tear)", info.Size(), len(whole))
			}
			put(t, s, keyOf("after"), []byte("appended"))
			s.Close()
			want := append(append([]byte{}, whole...), record(keyOf("after"), []byte("appended"))...)
			if got, err := os.ReadFile(seg); err != nil || !bytes.Equal(got, want) {
				t.Errorf("segment after the repair:\n%q\nwant\n%q", got, want)
			}
			s2 := open(t, dir, 0)
			if got, ok := s2.Get(keyOf("after")); !ok || string(got) != "appended" {
				t.Errorf("record appended after the cut, reopened: Get = %q, %v", got, ok)
			}
		})
	}
}

// TestSingleWriter: a directory has one live Store, in this process or
// any other; Close hands it on.
func TestSingleWriter(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	put(t, s, keyOf("a"), []byte("held"))
	if s2, err := Open(dir, 0); !errors.Is(err, ErrLocked) || !strings.Contains(fmt.Sprint(err), dir) {
		if err == nil {
			s2.Close()
		}
		t.Fatalf("second Open of a held directory: %v, want ErrLocked naming %s", err, dir)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keyOf("b"), []byte("late")); err == nil {
		t.Error("Put on a closed store succeeded")
	}
	if _, ok := s.Get(keyOf("a")); ok {
		t.Error("Get on a closed store hit")
	}
	s2 := open(t, dir, 0)
	if got, ok := s2.Get(keyOf("a")); !ok || string(got) != "held" {
		t.Errorf("Open after Close: Get = %q, %v", got, ok)
	}
}

// TestFewFiles: a cold job never creates a file — 1,000 Puts against a
// bound they overflow several times leave the segments and the lock.
func TestFewFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 64<<10)
	for i := 0; i < 1000; i++ {
		k := keyOf(fmt.Sprint("job-", i))
		put(t, s, k, payload(k, 430))
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > 10 {
		t.Errorf("%d files after 1,000 Puts, want <= 10", len(files))
	}
	if st := s.Stats(); st.Evictions == 0 || st.Bytes > 64<<10 {
		t.Errorf("stats = %+v, want evictions under a 64 KiB bound", st)
	}
}

// TestConcurrentPutGet: racing writers on the same key write identical
// bytes (the later record wins, which is correct by construction) while
// readers never observe a torn payload. Run under -race in tier-1.
func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	const goroutines = 8
	key := keyOf("contended")
	want := []byte(`{"cycles":1151,"digest":123456789}`)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := s.Put(key, want); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(key); !ok || string(got) != string(want) {
					t.Errorf("Get after Put = %q, %v", got, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, ok := s.Get(key); !ok || string(got) != string(want) {
		t.Fatalf("final Get = %q, %v", got, ok)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Errorf("stats = %+v, want a single entry", st)
	}
}

// TestConcurrentEvictionVsPut: with a bound tight enough that segments
// are deleted every few Puts, readers holding offsets into a segment
// that goes away must see a full payload or a clean miss — never bytes
// of another record — and afterwards the index must agree with the
// files byte for byte. Runs under -race in tier-1.
func TestConcurrentEvictionVsPut(t *testing.T) {
	const keys = 8
	const size = 1024
	// Room for ~2.5 payloads: almost every Put deletes a segment.
	dir := t.TempDir()
	s := open(t, dir, int64(size*5/2))
	payloads := make([][]byte, keys)
	addrs := make([]string, keys)
	for i := range payloads {
		addrs[i] = keyOf(fmt.Sprintf("churn-%d", i))
		payloads[i] = payload(fmt.Sprintf("churn-%d", i), size)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				i := (w + j) % keys
				if err := s.Put(addrs[i], payloads[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				i := (r + j) % keys
				if got, ok := s.Get(addrs[i]); ok && string(got) != string(payloads[i]) {
					t.Errorf("torn or stale read for key %d: %d bytes", i, len(got))
					return
				}
			}
		}(r)
	}
	wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, seg := range s.segs {
		info, err := seg.f.Stat()
		if err != nil || info.Size() != seg.size {
			t.Errorf("segment %s: %d bytes on disk (%v), %d accounted", seg.f.Name(), info.Size(), err, seg.size)
		}
		total += seg.size
	}
	if total != s.bytes || s.bytes > s.max {
		t.Errorf("accounted bytes %d, segments sum to %d, bound %d", s.bytes, total, s.max)
	}
	if n := len(segFiles(t, dir)); n != len(s.segs) {
		t.Errorf("%d segment files on disk, %d in the store", n, len(s.segs))
	}
	for key, e := range s.entries {
		got := make([]byte, e.size)
		if _, err := e.seg.f.ReadAt(got, e.off); err != nil || crc32.ChecksumIEEE(got) != e.crc {
			t.Errorf("phantom entry %s: indexed but unreadable (%v)", key[:8], err)
		}
	}
}

// FuzzSegmentScan: arbitrary bytes as a segment file under Open. The
// scan must end in a store that works — the well-formed prefix indexed,
// the rest cut off, nothing allocated on a length field's say-so — and
// never in a panic or a hang.
func FuzzSegmentScan(f *testing.F) {
	whole := record(keyOf("whole"), []byte(`{"status":"ok","cycles":1151}`))
	f.Add([]byte{})
	f.Add(whole)
	f.Add(whole[:30])                                                       // torn header
	f.Add(whole[:len(whole)-5])                                             // torn payload
	f.Add(bytes.Replace(whole, []byte("1151"), []byte("1157"), 1))          // wrong CRC
	f.Add([]byte(keyOf("huge") + " 99999999999999999999 0\n"))              // 20-digit length
	f.Add([]byte(keyOf("big") + " 9223372036854775807 0\nx\n"))             // length beyond the file
	f.Add([]byte(keyOf("neg") + " -2 0\n"))                                 // negative, not a tombstone
	f.Add(append(append([]byte{}, whole...), keyOf("whole")+" -1 0\n"...))  // record, then its tombstone
	f.Add(append(append([]byte{}, whole...), whole...))                     // the same key twice
	f.Add([]byte(strings.Repeat("a", 5000) + "\n"))                         // a header longer than the reader's buffer
	f.Add(append(record(keyOf("empty"), nil), record(keyOf("e2"), nil)...)) // empty payloads
	f.Add([]byte(keyOf("hex") + " 2 zz\nab\n"))                             // CRC not hex
	f.Add([]byte(keyOf("sp") + "  2 0\nab\n"))                              // two spaces
	f.Add([]byte(strings.ToUpper(keyOf("up")) + " 2 0\nab\n"))              // key not lowercase
	f.Add([]byte(keyOf("plus") + " +2 0\nab\n"))                            // signed length
	// One directory per worker process, its one segment overwritten by
	// each input: creating files is the slow part of this filesystem.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		seg := filepath.Join(dir, "seg-1.log")
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("Open over a hostile segment: %v", err)
		}
		defer s.Close()
		st := s.Stats()
		if st.Bytes > int64(len(data)) || int64(st.Entries)*67 > st.Bytes {
			t.Fatalf("%+v out of %d bytes", st, len(data))
		}
		// What was kept is a prefix of the input made of whole records,
		// and every indexed entry reads back with a matching CRC.
		kept, err := os.ReadFile(seg)
		if err != nil || !bytes.Equal(kept, data[:st.Bytes]) {
			t.Fatalf("segment after Open is not the input's first %d bytes (%v)", st.Bytes, err)
		}
		s.mu.Lock()
		keys := make([]string, 0, len(s.entries))
		for key := range s.entries {
			keys = append(keys, key)
		}
		s.mu.Unlock()
		for _, key := range keys {
			if _, ok := s.Get(key); !ok {
				t.Fatalf("indexed entry %s does not read back", key)
			}
		}
		// The store keeps working after the cut.
		if err := s.Put(keyOf("after"), []byte("appended")); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(keyOf("after")); !ok || string(got) != "appended" {
			t.Fatalf("Get after the scan = %q, %v", got, ok)
		}
	})
}

var sink []byte

// benchPayload has the size of a typical stored result (serve_cold's
// are ≈ 430 bytes) and is JSON, so the file-per-entry store this one
// replaced, which parsed payloads on Get, runs the same benchmarks.
var benchPayload = []byte(`{"status":"ok","pad":"` + strings.Repeat("x", 406) + `"}`)

func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = keyOf(fmt.Sprint("bench-", i))
	}
	return keys
}

// BenchmarkPut: distinct keys into a store far from its bound.
func BenchmarkPut(b *testing.B) {
	s := open(b, b.TempDir(), 0)
	keys := benchKeys(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(keys[i], benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutEvicting: the same into a store at serve_cold's bound
// (256 KiB, about 500 payloads), filled beforehand, so the timed Puts
// pay for eviction.
func BenchmarkPutEvicting(b *testing.B) {
	s := open(b, b.TempDir(), 256<<10)
	keys := benchKeys(b.N + 1000)
	for _, k := range keys[b.N:] {
		put(b, s, k, benchPayload)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(keys[i], benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.Evictions == 0 {
		b.Fatalf("nothing was evicted: %+v", st)
	}
}

// BenchmarkGetHit: hits over a working set of 256 entries.
func BenchmarkGetHit(b *testing.B) {
	s := open(b, b.TempDir(), 0)
	keys := benchKeys(256)
	for _, k := range keys {
		put(b, s, k, benchPayload)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, ok := s.Get(keys[i%len(keys)])
		if !ok {
			b.Fatal("miss")
		}
		sink = data
	}
}
