package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cache"
	"repro/internal/fuzzgen"
	"repro/internal/sim"
)

// TestFrontKeyIsTheBody: the memo is keyed by the bytes a client sent,
// the result cache by the canonical job. One job spelled seven ways —
// two whitespace layouts, two field orders, a host-side deadline, an
// unknown field, the default language and budget written out — is seven
// memo entries and one result entry: every spelling after the first is a
// cache hit that checks out no machine and answers the cold run's
// deterministic fields, and each spelling sent again is a memo hit.
func TestFrontKeyIsTheBody(t *testing.T) {
	srv, store, _ := newCachedServer(t, 0, Config{Workers: 1, QueueDepth: 4})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	src, err := json.Marshal(vecsumSource)
	if err != nil {
		t.Fatal(err)
	}
	spellings := []string{
		fmt.Sprintf(`{"source":%s,"cores":2,"digest":true}`, src),
		fmt.Sprintf("{\n  \"source\": %s,\n  \"cores\": 2,\n  \"digest\": true\n}\n", src),
		fmt.Sprintf(`{"digest":true,"cores":2,"source":%s}`, src),
		fmt.Sprintf(`{"source":%s,"cores":2,"digest":true,"deadlineMs":30000}`, src),
		fmt.Sprintf(`{"source":%s,"cores":2,"digest":true,"comment":"not a JobRequest field"}`, src),
		fmt.Sprintf(`{"source":%s,"lang":"c","cores":2,"digest":true}`, src),
		fmt.Sprintf(`{"source":%s,"cores":2,"digest":true,"maxCycles":%d}`, src, srv.cfg.defaultMaxCycles()),
	}

	code, coldRaw, cold := postRaw(t, h, []byte(spellings[0]))
	if code != http.StatusOK || cold.Status != StatusOK || cold.Cached {
		t.Fatalf("cold run: HTTP %d status %q cached=%v (%s)", code, cold.Status, cold.Cached, cold.Error)
	}
	checkedOut := srv.exec.Metrics().CheckedOut
	for round, wantFrontHits := range []int{0, len(spellings)} {
		for i, body := range spellings {
			if round == 0 && i == 0 {
				continue
			}
			code, raw, jr := postRaw(t, h, []byte(body))
			if code != http.StatusOK || !jr.Cached {
				t.Fatalf("round %d, spelling %d: HTTP %d cached=%v (%s), want a hit", round, i, code, jr.Cached, jr.Error)
			}
			if got, want := stripHostFields(t, raw), stripHostFields(t, coldRaw); got != want {
				t.Errorf("round %d, spelling %d differs from the cold run:\ncold: %s\nhit:  %s", round, i, want, got)
			}
		}
		if got := srv.met.frontHits.Load(); got != uint64(wantFrontHits) {
			t.Errorf("after round %d: front hits = %d, want %d", round, got, wantFrontHits)
		}
	}
	if n := len(srv.front.keys); n != len(spellings) {
		t.Errorf("memo holds %d entries, want one per spelling (%d)", n, len(spellings))
	}
	if st := store.Stats(); st.Entries != 1 {
		t.Errorf("store holds %d entries, want 1", st.Entries)
	}
	if got := srv.exec.Metrics().CheckedOut; got != checkedOut {
		t.Errorf("the hits checked out %d machines, want 0", got-checkedOut)
	}
}

// cacheKeyOf is the content address of a request, computed the long way.
func cacheKeyOf(t testing.TB, req JobRequest, maxCycles uint64) string {
	t.Helper()
	prog, err := req.compile()
	if err != nil {
		t.Fatal(err)
	}
	key, err := sim.CacheKey(sim.Spec{
		Program: prog, Cores: req.Cores, SharedBankBytes: req.BankBytes, MaxCycles: maxCycles,
		Trace: sim.TraceSpec{Digest: req.Digest, Ring: req.Ring}, Profile: req.Profile,
	})
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// postHandler sends one request to the handler itself and returns the
// raw response with its decoding.
func postHandler(t *testing.T, h http.Handler, req JobRequest) (int, []byte, *JobResult) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, h, body)
}

// TestFrontIndexPaths walks the memo's three paths from outside: a
// body never seen is decoded, compiled and remembered; the same bytes
// again are answered from the cache without decoding or compiling; a
// repeat whose result entry is gone runs cold under the remembered key,
// counting one miss, and repairs the entry. Other bytes for the same job
// miss the memo and still hit the cache. A request that does not compile
// is never remembered, and a full memo forgets entries, never answers.
func TestFrontIndexPaths(t *testing.T) {
	srv, store, _ := newCachedServer(t, 0, Config{Workers: 1, QueueDepth: 4})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	req := JobRequest{Source: vecsumSource, Cores: 2, Digest: true, DeadlineMs: 30_000}
	key := cacheKeyOf(t, req, srv.cfg.defaultMaxCycles())

	code, coldRaw, cold := postHandler(t, h, req)
	if code != http.StatusOK || cold.Status != StatusOK || cold.Cached {
		t.Fatalf("cold run: HTTP %d status %q cached=%v (%s)", code, cold.Status, cold.Cached, cold.Error)
	}
	if got := srv.met.frontHits.Load(); got != 0 {
		t.Errorf("front hits = %d after a first request, want 0", got)
	}
	checkedOut := srv.exec.Metrics().CheckedOut

	for _, step := range []struct {
		name       string
		deadlineMs int64
		frontHits  uint64
	}{
		{"the same bytes", 30_000, 1},
		{"deadlineMs 0 (host-side: other bytes, the same job)", 0, 1},
	} {
		req.DeadlineMs = step.deadlineMs
		code, warmRaw, warm := postHandler(t, h, req)
		if code != http.StatusOK || !warm.Cached {
			t.Fatalf("%s: HTTP %d cached=%v, want a hit", step.name, code, warm.Cached)
		}
		if got, want := stripHostFields(t, warmRaw), stripHostFields(t, coldRaw); got != want {
			t.Errorf("%s: hit differs from the cold run:\ncold: %s\nhit:  %s", step.name, want, got)
		}
		if got := srv.met.frontHits.Load(); got != step.frontHits {
			t.Errorf("%s: front hits = %d, want %d", step.name, got, step.frontHits)
		}
		if got := srv.exec.Metrics().CheckedOut; got != checkedOut {
			t.Errorf("%s: the hit checked out %d machines, want 0", step.name, got-checkedOut)
		}
	}

	// The result entry goes away behind the memo's back.
	store.Remove(key)
	misses := srv.met.cacheMisses.Load()
	code, _, rerun := postHandler(t, h, req)
	if code != http.StatusOK || rerun.Status != StatusOK || rerun.Cached || rerun.Digest != cold.Digest {
		t.Fatalf("repeat after Remove: HTTP %d status %q cached=%v digest %#x, want an uncached 200 with digest %#x",
			code, rerun.Status, rerun.Cached, rerun.Digest, cold.Digest)
	}
	if got := srv.met.frontHits.Load(); got != 2 {
		t.Errorf("front hits = %d, want 2 (the key still came from the memo)", got)
	}
	if got := srv.met.cacheMisses.Load() - misses; got != 1 {
		t.Errorf("the re-run counted %d cache misses, want 1", got)
	}
	if _, ok := store.Get(key); !ok {
		t.Errorf("the re-run stored nothing under the remembered key %s", key)
	}
	if code, _, jr := postHandler(t, h, req); code != http.StatusOK || !jr.Cached {
		t.Errorf("repeat after repair: HTTP %d cached=%v, want a hit", code, jr.Cached)
	}

	// A source that does not compile is refused the same way each time.
	hits, entries := srv.met.frontHits.Load(), len(srv.front.keys)
	bad := JobRequest{Source: "void main() { undefined_fn(); }"}
	code1, _, bad1 := postHandler(t, h, bad)
	code2, _, bad2 := postHandler(t, h, bad)
	if code1 != http.StatusBadRequest || code2 != http.StatusBadRequest || bad1.Error == "" || bad1.Error != bad2.Error {
		t.Errorf("bad source twice: HTTP %d %q, HTTP %d %q; want the same 400 twice", code1, bad1.Error, code2, bad2.Error)
	}
	if srv.met.frontHits.Load() != hits || len(srv.front.keys) != entries {
		t.Errorf("a request that failed to compile was memoized (front hits %d → %d, entries %d → %d)",
			hits, srv.met.frontHits.Load(), entries, len(srv.front.keys))
	}

	// Fill the memo to its bound with other requests' keys, then keep
	// going through the handler: it stays at the bound, and whether or
	// not a request's own entry survived, its answer is right.
	for i := uint64(0); len(srv.front.keys) < frontIndexEntries; i++ {
		var other [sha256.Size]byte
		binary.LittleEndian.PutUint64(other[:], i)
		srv.front.put(other, key)
	}
	for i := 0; i < 8; i++ {
		distinct := JobRequest{Source: exitAsm, Lang: "s", Cores: 1, Digest: true, MaxCycles: 1000 + uint64(i)}
		for _, wantCached := range []bool{false, true} {
			code, _, jr := postHandler(t, h, distinct)
			if code != http.StatusOK || jr.Status != StatusOK || jr.Cached != wantCached || jr.Halt != "exit" {
				t.Errorf("full memo, request %d: HTTP %d status %q halt %q cached=%v, want ok/exit cached=%v",
					i, code, jr.Status, jr.Halt, jr.Cached, wantCached)
			}
		}
		if n := len(srv.front.keys); n > frontIndexEntries {
			t.Fatalf("memo holds %d entries, bound is %d", n, frontIndexEntries)
		}
	}
	if code, _, jr := postHandler(t, h, req); code != http.StatusOK || !jr.Cached || jr.Digest != cold.Digest {
		t.Errorf("first request against a full memo: HTTP %d cached=%v digest %#x, want the cold run's hit", code, jr.Cached, jr.Digest)
	}
}

// BenchmarkHandleJobsHit is the whole cost of a cache hit inside the
// process — body read, its SHA-256, memo, cache read, the response
// spliced and indented from the stored bytes — for the two ends of
// serve_hot's mix: a generated MiniC source (≈ 2 KB) and a 64 Ki-word
// image (≈ 770 KB of JSON).
func BenchmarkHandleJobsHit(b *testing.B) {
	p := fuzzgen.Generate(1_000_003, fuzzgen.GenConfig{})
	source := JobRequest{Source: p.Render(), Cores: p.MinCores, Digest: true}
	big := JobRequest{Source: fmt.Sprintf("int big[%d] = {[0 ... %d] = 1};\nint out;\nvoid main() { out = big[0] + big[%d]; }\n",
		64<<10, 64<<10-1, 64<<10-1), Cores: 16}
	prog, err := big.compile()
	if err != nil {
		b.Fatal(err)
	}
	var img bytes.Buffer
	if err := prog.WriteImage(&img); err != nil {
		b.Fatal(err)
	}
	image := JobRequest{Image: img.Bytes(), Cores: 16, Digest: true}

	for _, bc := range []struct {
		name string
		req  JobRequest
	}{{"source", source}, {"image", image}} {
		b.Run(bc.name, func(b *testing.B) {
			store, err := cache.Open(b.TempDir(), 0)
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			srv := New(Config{Workers: 1, QueueDepth: 4, Cache: store})
			defer srv.Shutdown(context.Background())
			h := srv.Handler()
			body, err := json.Marshal(bc.req)
			if err != nil {
				b.Fatal(err)
			}
			post := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
				return rec
			}
			if rec := post(); rec.Code != http.StatusOK {
				b.Fatalf("cold run: HTTP %d: %s", rec.Code, rec.Body.Bytes())
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := post(); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached": true`)) {
					b.Fatalf("HTTP %d, not a hit: %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}

// BenchmarkHandleJobsMiss is the whole cost of a cold job inside the
// process — body read, memo miss, decode, compile, cache key, a pooled
// run, the cache write and the response — for a distinct generated
// MiniC source each time: the server's share of serve_cold, without the
// load generator the benchmark ledger's allocation meter also counts.
func BenchmarkHandleJobsMiss(b *testing.B) {
	p := fuzzgen.Generate(1_000_003, fuzzgen.GenConfig{})
	src := p.Render()
	store, err := cache.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	srv := New(Config{Workers: 1, QueueDepth: 4, Cache: store})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	post := func(i int) {
		// A distinct program every time: a global the program never reads.
		req := JobRequest{Source: fmt.Sprintf("int unread%d;\n%s", i, src), Cores: p.MinCores, Digest: true}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || bytes.Contains(rec.Body.Bytes(), []byte(`"cached": true`)) {
			b.Fatalf("HTTP %d, not a miss: %s", rec.Code, rec.Body.Bytes())
		}
	}
	post(0) // a warm pool machine and warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(i + 1)
	}
}

// TestReadBodyReusesBuffer: a body that fits the buffer handed in is
// read without an allocation, so a pooled buffer makes an ordinary
// request's body free.
func TestReadBodyReusesBuffer(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 4<<10)
	r := bytes.NewReader(body)
	buf, err := readBody(nil, r)
	if err != nil || !bytes.Equal(buf, body) {
		t.Fatalf("cold read: %d bytes, %v", len(buf), err)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		if buf, err = readBody(buf[:0], r); err != nil || len(buf) != len(body) {
			t.Fatalf("warm read: %d bytes, %v", len(buf), err)
		}
	}); n != 0 {
		t.Errorf("reading a 4 KiB body into a warm buffer allocates %v times, want 0", n)
	}
}
