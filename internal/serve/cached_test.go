package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/cache"
	"repro/internal/dispatch"
)

// parentHitBody is the response a hit used to be: the stored payload
// decoded into a JobResult, stamped with the hit's ID and Cached, and
// encoded by json.Encoder with a two-space indent.
func parentHitBody(t testing.TB, payload []byte, id string) []byte {
	t.Helper()
	var res JobResult
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatalf("the reference cannot decode the payload: %v\n%s", err, payload)
	}
	res.ID, res.Cached = id, true
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&res); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCachedResponseBytes: a hit answered as its stored bytes is the
// response the decode-and-encode path gave, byte for byte, for payloads
// of several job shapes and for the fixture an older build stored. The
// first repeat is spelled in bytes no request had, so it hits through
// the decoder; the second sends them again and hits through the
// body-keyed memo. A JobResult field order that moved storeResult's
// envelope would turn every hit into a miss, and fails here too.
func TestCachedResponseBytes(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent_cache_payload.json"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := (&JobRequest{Source: vecsumSource, Cores: 2}).compile()
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := prog.WriteImage(&img); err != nil {
		t.Fatal(err)
	}
	profiled := JobRequest{Source: vecsumSource, Cores: 2, Digest: true, Ring: 4, Profile: true}
	for _, tc := range []struct {
		name   string
		req    JobRequest
		stored []byte // put under the key instead of a cold run's payload
	}{
		{"digest only", JobRequest{Source: vecsumSource, Cores: 2, Digest: true}, nil},
		{"ring and profile", profiled, nil},
		{"the parent's fixture", profiled, fixture},
		{"an image", JobRequest{Image: img.Bytes(), Cores: 2, Digest: true, Ring: 2}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, store, _ := newCachedServer(t, 0, Config{Workers: 1, QueueDepth: 4})
			defer srv.Shutdown(context.Background())
			h := srv.Handler()
			key := cacheKeyOf(t, tc.req, srv.cfg.defaultMaxCycles())
			if tc.stored != nil {
				if err := store.Put(key, tc.stored); err != nil {
					t.Fatal(err)
				}
			} else if code, _, jr := postHandler(t, h, tc.req); code != http.StatusOK || jr.Cached {
				t.Fatalf("cold run: HTTP %d cached=%v (%s)", code, jr.Cached, jr.Error)
			}
			payload, ok := store.Get(key)
			if !ok {
				t.Fatal("nothing stored under the job's key")
			}
			if !bytes.HasPrefix(payload, []byte(cachedHead)) || !bytes.HasSuffix(payload, []byte(cachedTail)) {
				t.Fatalf("the stored payload is outside the envelope %s … %s:\n%s", cachedHead, cachedTail, payload)
			}
			spelled := tc.req
			spelled.DeadlineMs = 30_000 // host-side: the same key
			for _, path := range []string{"decoder", "memo"} {
				code, raw, jr := postHandler(t, h, spelled)
				if code != http.StatusOK || !jr.Cached {
					t.Fatalf("hit through the %s: HTTP %d cached=%v (%s)", path, code, jr.Cached, jr.Error)
				}
				if want := parentHitBody(t, payload, jr.ID); !bytes.Equal(raw, want) {
					t.Errorf("hit through the %s differs from the decoded and re-encoded payload:\nwant: %s\ngot:  %s", path, want, raw)
				}
			}
			if hits, front := srv.met.cacheHits.Load(), srv.met.frontHits.Load(); hits != 2 || front != 1 {
				t.Errorf("cache hits %d, front hits %d, want 2 and 1", hits, front)
			}
		})
	}
}

// hitID is the form of the ID a hit is stamped with.
var hitID = regexp.MustCompile(`^"job-[0-9]{6,}"$`)

// FuzzCachedPayload: whatever bytes are stored under a job's key, the
// job is either a miss that drops them or a hit whose body is one JSON
// object that begins with the stamped ID and status "ok" and ends with
// "cached": true and the three zeroed host-side fields — never a panic,
// and never a stored "cached" or ID in their place. A miss meets a
// dispatcher that refuses it (429), so nothing runs and nothing is
// stored again.
func FuzzCachedPayload(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent_cache_payload.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	for _, row := range corruptPayloads {
		f.Add([]byte(row.payload))
	}
	store, err := cache.Open(f.TempDir(), 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	srv := New(Config{Cache: store, Dispatcher: refusingDispatcher{dispatch.ErrQueueFull}})
	f.Cleanup(func() {
		srv.Shutdown(context.Background())
		store.Close()
	})
	h := srv.Handler()
	req := JobRequest{Source: exitAsm, Lang: "s", Cores: 1, Digest: true}
	key := cacheKeyOf(f, req, srv.cfg.defaultMaxCycles())
	f.Fuzz(func(t *testing.T, payload []byte) {
		if err := store.Put(key, payload); err != nil {
			t.Skip(err) // larger than the store: nothing under the key to serve
		}
		code, raw, _ := postHandler(t, h, req)
		if code != http.StatusOK {
			if _, ok := store.Get(key); code != http.StatusTooManyRequests || ok {
				t.Fatalf("a miss answered HTTP %d and left the entry stored: %v\n%s", code, ok, raw)
			}
			return
		}
		keys, vals := topLevel(t, raw)
		n := len(keys)
		if n < 6 || keys[0] != "id" || !hitID.MatchString(vals[0]) || keys[1] != "status" || vals[1] != `"ok"` {
			t.Fatalf("a hit that does not begin with the stamped ID and status \"ok\": %s", raw)
		}
		for i, want := range [][2]string{{"cached", "true"}, {"poolWarm", "false"}, {"queueMs", "0"}, {"runMs", "0"}} {
			if j := n - 4 + i; keys[j] != want[0] || vals[j] != want[1] {
				t.Fatalf("a hit whose last fields are not cached: true and the zeroed host-side ones: %s", raw)
			}
		}
	})
}

// topLevel splits a response that must be exactly one JSON object into
// its top-level keys and their raw values, in order.
func topLevel(t *testing.T, raw []byte) (keys, vals []string) {
	t.Helper()
	if !json.Valid(raw) || !bytes.HasSuffix(raw, []byte("}\n")) {
		t.Fatalf("a hit that is not one JSON value and a newline: %q", raw)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("a hit that is not an object: %s", raw)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		keys, vals = append(keys, tok.(string)), append(vals, string(v))
	}
	return keys, vals
}
