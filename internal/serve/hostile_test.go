package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// exitAsm is the shortest program that exits: three instructions.
const exitAsm = "main:\n\tli ra, 0\n\tli t0, -1\n\tp_ret\n"

// postRaw sends raw bytes to /jobs on the handler itself — no network,
// no net/http recover between a panic and the test — and returns the raw
// response with its decoding.
func postRaw(t *testing.T, h http.Handler, body []byte) (int, []byte, *JobResult) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
	var jr JobResult
	if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
		t.Fatalf("HTTP %d with a body that is no JobResult: %v\n%.300s", rec.Code, err, rec.Body.Bytes())
	}
	return rec.Code, rec.Body.Bytes(), &jr
}

// postBody is postRaw without the raw response.
func postBody(t *testing.T, h http.Handler, body []byte) (int, *JobResult) {
	t.Helper()
	code, _, jr := postRaw(t, h, body)
	return code, jr
}

// TestHostileRequests: five requests that each used to end the process
// or cost it gigabytes — 80 bytes whose "ring" sized a 1<<40-event
// allocation on the dispatcher goroutine (fatal: out of memory, not a
// panic net/http could recover), and four MiniC sources that overflowed
// the stack in the compiler or had it allocate 762 MB — are 400s that
// name what they refuse, cost next to nothing, and leave a server that
// still runs jobs.
func TestHostileRequests(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()

	var macros strings.Builder
	for i := 0; i < 22; i++ {
		fmt.Fprintf(&macros, "#define A%d A%d + A%d\n", i, i+1, i+1)
	}
	macros.WriteString("#define A22 1\n")
	inMain := func(expr string) []byte {
		body, err := json.Marshal(JobRequest{Source: "int x;\nvoid main() { x = " + expr + "; }\n"})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	ringBody := func(ring int) []byte {
		return []byte(fmt.Sprintf(`{"source":%q,"lang":"s","ring":%d}`, exitAsm, ring))
	}
	global, _ := json.Marshal(JobRequest{Source: "int a[100000000] = {1};\nvoid main() {}\n"})
	macroBody, _ := json.Marshal(JobRequest{Source: macros.String() + "int x;\nvoid main() { x = A0; }\n"})
	for _, tc := range []struct {
		name string
		body []byte
		want string // in the error
	}{
		{"ring 1<<40", ringBody(1 << 40), "ring 1099511627776"},
		{"ring one over the cap", ringBody(sim.MaxTraceRing + 1), "ring 1048577"},
		{"22 doubling macros", macroBody, "program: cc: line 25"},
		{"a million parentheses", inMain(strings.Repeat("(", 1e6) + "1" + strings.Repeat(")", 1e6)), "program: cc: line 2"},
		{"a 1.5 M-term sum", inMain("1" + strings.Repeat("+1", 1_500_000)), "program: cc: line 2"},
		{"a 400 MB initialized global", global, "program: cc: line 1"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, jr := postBody(t, h, tc.body)
		runtime.ReadMemStats(&after)
		if code != http.StatusBadRequest || !strings.Contains(jr.Error, tc.want) {
			t.Errorf("%s: HTTP %d error %q, want 400 naming %q", tc.name, code, jr.Error, tc.want)
		}
		// Decoding the body is the whole cost: a few times its size.
		if spent, limit := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+8*len(tc.body)); spent > limit {
			t.Errorf("%s: refusing %d bytes allocated %d", tc.name, len(tc.body), spent)
		}
	}
	// The largest legal ring is a job like any other.
	if code, jr := postBody(t, h, ringBody(sim.MaxTraceRing)); code != http.StatusOK || jr.Status != StatusOK || len(jr.Tail) == 0 {
		t.Errorf("ring at the cap: HTTP %d %+v", code, jr)
	}
}

// FuzzJobRequest: whatever bytes arrive as the body of POST /jobs, the
// handler answers one of its documented status codes with a JobResult —
// never a panic, and never by running a job past the server's caps. The
// server has a result cache, so every body is sent twice and the second
// answer — through the body-keyed memo whenever the first one got that
// far — must be the first one again: same status, same deterministic
// fields, and a 200 served from the cache.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		fmt.Sprintf(`{"source":%q,"lang":"s","cores":1,"digest":true}`, exitAsm),
		fmt.Sprintf(`{"source":%q,"lang":"s","ring":1099511627776}`, exitAsm),
		fmt.Sprintf(`{"source":%q,"lang":"s","ring":8,"profile":true,"maxCycles":1000}`, exitAsm),
		`{"source":"int x;\nvoid main() { x = 1; }\n","cores":2,"bankBytes":8192,"deadlineMs":50}`,
		`{"source":"int a[100000000] = {1};\nvoid main() {}\n"}`,
		`{"source":"#define A A\nvoid main() { A; }"}`,
		`{"source":"int a[100000];"}`, // compiles, fits no 4-core machine: a refusal, 502
		`{"image":"bGJwaW1nIDEK","cores":4}`,
		`{"source":"x","image":"AA==","lang":"rust","cores":-1,"ring":-1,"bankBytes":12345}`,
		`{"source":"loop:\n\tj loop\n","lang":"s","maxCycles":18446744073709551615}`,
		`{}`, `[]`, `{"source":`, `{"cores":1e99}`, "\x00\xff",
	} {
		f.Add([]byte(seed))
	}
	// Small caps: a mutated request may ask for any machine and any
	// budget, and the fuzzer runs thousands a second.
	store, err := cache.Open(f.TempDir(), 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	srv := New(Config{Workers: 1, QueueDepth: 4, DefaultMaxCycles: 20_000, MaxCyclesCap: 50_000,
		PoolPerKey: 1, PoolTotal: 1, Cache: store})
	f.Cleanup(func() {
		srv.Shutdown(context.Background())
		store.Close()
	})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		code, raw, jr := postRaw(t, h, body)
		switch code { // DESIGN.md §8: the status table
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusUnprocessableEntity, http.StatusTooManyRequests, statusClientClosedRequest,
			http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("HTTP %d is not a documented answer: %+v", code, jr)
		}
		if (code == http.StatusOK) != (jr.Status == StatusOK) || (code != http.StatusOK && jr.Error == "") {
			t.Fatalf("HTTP %d with status %q, error %q", code, jr.Status, jr.Error)
		}
		code2, raw2, jr2 := postRaw(t, h, body)
		if code == http.StatusGatewayTimeout || code2 == http.StatusGatewayTimeout {
			return // a wall-clock deadline is the one answer that may differ
		}
		if code2 != code || stripHostFields(t, raw2) != stripHostFields(t, raw) {
			t.Fatalf("the same body twice: HTTP %d then %d\nfirst:  %s\nsecond: %s", code, code2, raw, raw2)
		}
		if code == http.StatusOK && !jr2.Cached {
			t.Fatalf("a repeated 200 was not served from the cache: %s", raw2)
		}
	})
}
