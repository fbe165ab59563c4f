package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// vecsumSource is the parallel vector-sum MiniC program from testdata,
// inlined so the tests are self-contained.
const vecsumSource = `
#include <det_omp.h>
#define NUM_HART 8
#define N 64

int data[N] = {[0 ... 63] = 2};
int total;

void main() {
	int t;
	omp_set_num_threads(NUM_HART);
	total = 0;
	#pragma omp parallel for reduction(+:total)
	for (t = 0; t < NUM_HART; t++) {
		int i;
		int *p;
		p = data + t * (N / NUM_HART);
		for (i = 0; i < N / NUM_HART; i++) {
			total += *p;
			p = p + 1;
		}
	}
}
`

// spinSource busy-loops long enough for a shutdown to preempt it
// mid-run (a few million simulated cycles), then exits cleanly.
const spinSource = `main:
	li t1, 2000000
loop:
	addi t1, t1, -1
	bne t1, zero, loop
	li ra, 0
	li t0, -1
	p_ret
`

// busySource is spinSource at half the length: it keeps a worker busy
// long enough (a few million cycles) for a test to line jobs up
// behind it, then exits cleanly.
var busySource = strings.Replace(spinSource, "2000000", "1000000", 1)

// postJob submits one job and decodes the response, whatever the code.
func postJob(t *testing.T, url string, req JobRequest) (int, *JobResult) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JobResult
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, &jr
}

// directRun executes the request the way a local client would — through
// sim.Session, bypassing the service entirely — and returns the
// deterministic outcome the service must reproduce bit for bit.
func directRun(t *testing.T, req JobRequest, maxCycles uint64) *JobResult {
	t.Helper()
	prog, err := req.compile()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sim.New(sim.Spec{
		Program:         prog,
		Cores:           req.Cores,
		SharedBankBytes: req.BankBytes,
		MaxCycles:       maxCycles,
		Trace:           sim.TraceSpec{Digest: req.Digest, Ring: req.Ring},
		Profile:         req.Profile,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	memStats := res.Mem
	return &JobResult{
		Halt: res.Halt, Cycles: res.Stats.Cycles, Retired: res.Stats.Retired, IPC: res.Stats.IPC(),
		Digest: sess.Recorder().Digest(), Events: sess.Recorder().Count(),
		Mem: &memStats, Perf: sess.PerfSnapshot(),
	}
}

// running and queued read the two job gauges the way /metrics does.
func running(s *Server) int { return s.disp.Metrics().Running }
func queued(s *Server) int  { return s.disp.Metrics().Queued }

// TestDeterminismUnderLoad is the acceptance test: the same job
// submitted by many concurrent clients must return, for every one of
// them, exactly the cycles, retired count and trace digest of a direct
// sim.Session run — including while other clients cancel long jobs
// mid-run, whose machines cycle back through the warm pool. Runs under
// -race in tier-1.
func TestDeterminismUnderLoad(t *testing.T) {
	req := JobRequest{Source: vecsumSource, Cores: 2, Digest: true, Profile: true}
	want := directRun(t, req, 100_000_000)

	srv := New(Config{Workers: 4, QueueDepth: 64})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 12
	const cancelers = 4
	spin, err := json.Marshal(JobRequest{Source: spinSource, Lang: "s", Cores: 1, Digest: true, MaxCycles: 400_000_000})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*JobResult, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < cancelers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/jobs", bytes.NewReader(spin))
			if err != nil {
				t.Error(err)
				return
			}
			// The cancellation races the run; either way the response
			// is irrelevant — what matters is that it cannot perturb
			// anyone else's digest.
			if resp, err := http.DefaultClient.Do(hr); err == nil {
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], results[i] = postJob(t, ts.URL, req)
		}(i)
	}
	wg.Wait()
	// Let the server finish the canceled jobs before reading counters.
	waitFor(t, "canceled jobs drained", func() bool {
		return running(srv) == 0 && queued(srv) == 0
	})
	for i, jr := range results {
		if codes[i] != http.StatusOK || jr.Status != StatusOK {
			t.Errorf("client %d: HTTP %d status %q (%s)", i, codes[i], jr.Status, jr.Error)
			continue
		}
		if jr.Halt != want.Halt || jr.Cycles != want.Cycles || jr.Retired != want.Retired ||
			jr.Digest != want.Digest || jr.Events != want.Events {
			t.Errorf("client %d diverged: halt=%q cycles=%d retired=%d digest=%#x events=%d,"+
				" want halt=%q cycles=%d retired=%d digest=%#x events=%d",
				i, jr.Halt, jr.Cycles, jr.Retired, jr.Digest, jr.Events,
				want.Halt, want.Cycles, want.Retired, want.Digest, want.Events)
		}
		if jr.Perf == nil || jr.Perf.HartCycles != want.Perf.HartCycles ||
			jr.Perf.CommitCycles != want.Perf.CommitCycles {
			t.Errorf("client %d: perf snapshot diverged: %+v, want %+v", i, jr.Perf, want.Perf)
		}
		if jr.Mem == nil || *jr.Mem != *want.Mem {
			t.Errorf("client %d: memory stats diverged: %+v, want %+v", i, jr.Mem, want.Mem)
		}
	}
	// The pool must have been exercised: 12 jobs over 4 workers cannot
	// all have built fresh machines... but every reuse was invisible.
	st := srv.exec.PoolStats()
	if st.Hits == 0 {
		t.Error("no warm-pool hits under load")
	}
	if st.ResetFailures != 0 {
		t.Errorf("reset failures = %d, want 0", st.ResetFailures)
	}
	// Canceled jobs hand their machines back instead of discarding.
	if got := srv.exec.Metrics().PoolDiscarded; got != 0 {
		t.Errorf("pool_discarded = %d under cancel-heavy load, want 0", got)
	}
}

// TestQueueOverflow: with the one worker busy on a long job and the
// single queue slot filled, the next job must be answered 429 with
// Retry-After — backpressure instead of unbounded queueing.
func TestQueueOverflow(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	long := JobRequest{Source: busySource, Lang: "s", Cores: 1, MaxCycles: 50_000_000}
	req := JobRequest{Source: vecsumSource, Cores: 2, Digest: true}
	type reply struct {
		code int
		jr   *JobResult
	}
	replies := make(chan reply, 2)
	submit := func(req JobRequest) {
		code, jr := postJob(t, ts.URL, req)
		replies <- reply{code, jr}
	}
	go submit(long) // occupies the worker
	waitFor(t, "running job", func() bool { return running(srv) == 1 })
	go submit(req) // sits in the queue
	waitFor(t, "queued job", func() bool { return queued(srv) == 1 })

	code, jr := postJob(t, ts.URL, req) // overflow
	if code != http.StatusTooManyRequests || jr.Status != StatusRejected {
		t.Errorf("overflow: HTTP %d status %q, want 429 rejected", code, jr.Status)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"source":"x","lang":"s"`)) // also bad JSON
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: HTTP %d, want 400", resp.StatusCode)
	}

	for i := 0; i < 2; i++ {
		r := <-replies
		if r.code != http.StatusOK || r.jr.Status != StatusOK {
			t.Errorf("held job %d: HTTP %d status %q (%s)", i, r.code, r.jr.Status, r.jr.Error)
		}
	}
	if got := srv.met.rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDrain: shutdown refuses new work immediately but lets the
// in-flight job finish and answer 200.
func TestShutdownDrain(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := JobRequest{Source: busySource, Lang: "s", Cores: 1, MaxCycles: 50_000_000}
	got := make(chan *JobResult, 1)
	go func() {
		_, jr := postJob(t, ts.URL, req)
		got <- jr
	}()
	waitFor(t, "running job", func() bool { return running(srv) == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	waitFor(t, "draining", srv.draining)

	if code, jr := postJob(t, ts.URL, req); code != http.StatusServiceUnavailable {
		t.Errorf("post while draining: HTTP %d status %q, want 503", code, jr.Status)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("healthz while draining: HTTP %d, want 503", resp.StatusCode)
		}
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	jr := <-got
	if jr.Status != StatusOK {
		t.Errorf("drained job: status %q (%s), want ok", jr.Status, jr.Error)
	}
}

// TestShutdownPreemptsAndCheckpointResumes: a shutdown whose grace
// expires preempts the running job at a slice boundary and checkpoints
// it; resuming that checkpoint finishes with exactly the digest of an
// uninterrupted run — preemption is invisible to the simulated results.
func TestShutdownPreemptsAndCheckpointResumes(t *testing.T) {
	req := JobRequest{Source: spinSource, Lang: "s", Cores: 1, Digest: true, MaxCycles: 50_000_000}
	want := directRun(t, req, req.MaxCycles)

	dir := t.TempDir()
	srv := New(Config{Workers: 1, QueueDepth: 4, CheckpointDir: dir})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	got := make(chan *JobResult, 1)
	codec := make(chan int, 1)
	go func() {
		code, jr := postJob(t, ts.URL, req)
		codec <- code
		got <- jr
	}()
	waitFor(t, "job running", func() bool { return running(srv) == 1 })
	time.Sleep(50 * time.Millisecond) // let some slices elapse

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // grace already expired: preempt at the next slice
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	code, jr := <-codec, <-got
	if code != http.StatusServiceUnavailable || jr.Status != StatusPreempted {
		t.Fatalf("preempted job: HTTP %d status %q (%s), want 503 preempted", code, jr.Status, jr.Error)
	}
	if jr.Checkpoint == "" {
		t.Fatalf("no checkpoint recorded: %s", jr.Error)
	}
	if filepath.Dir(jr.Checkpoint) != dir {
		t.Errorf("checkpoint %s not under %s", jr.Checkpoint, dir)
	}
	if got := srv.met.preempted.Load(); got != 1 {
		t.Errorf("preempted counter = %d, want 1", got)
	}

	data, err := os.ReadFile(jr.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := sim.Resume(data, sim.ResumeSpec{MaxCycles: req.MaxCycles})
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Halt != want.Halt || res.Stats.Cycles != want.Cycles ||
		res.Stats.Retired != want.Retired ||
		resumed.Recorder().Digest() != want.Digest ||
		resumed.Recorder().Count() != want.Events {
		t.Errorf("resumed run diverged: halt=%q cycles=%d retired=%d digest=%#x events=%d,"+
			" want halt=%q cycles=%d retired=%d digest=%#x events=%d",
			res.Halt, res.Stats.Cycles, res.Stats.Retired,
			resumed.Recorder().Digest(), resumed.Recorder().Count(),
			want.Halt, want.Cycles, want.Retired, want.Digest, want.Events)
	}
}

// TestJobDeadline: a job whose wall-clock deadline elapses mid-run is
// stopped cooperatively and answered 504.
func TestJobDeadline(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := JobRequest{Source: spinSource, Lang: "s", Cores: 1, MaxCycles: 500_000_000, DeadlineMs: 30}
	code, jr := postJob(t, ts.URL, req)
	if code != http.StatusGatewayTimeout || jr.Status != StatusDeadline {
		t.Errorf("HTTP %d status %q (%s), want 504 deadline", code, jr.Status, jr.Error)
	}
}

// TestDeadlineWithinOneSlice: a default server stops a job whose
// deadline elapsed at its next slice boundary. Figure 21's base matmul
// on 64 cores simulates slowly, so a long slice lets the deadline
// overshoot by seconds: with 1 Mi-cycle slices this job answered after
// ≈ 5 s, stopped at exactly cycle 1048576.
func TestDeadlineWithinOneSlice(t *testing.T) {
	const h = 256 // harts: 64 cores
	src, err := workloads.MatmulSource(workloads.Base, h)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := JobRequest{Source: src, Cores: h / 4, BankBytes: workloads.SharedBankBytes(h), DeadlineMs: 50}
	code, jr := postJob(t, ts.URL, req)
	if code != http.StatusGatewayTimeout || jr.Status != StatusDeadline {
		t.Fatalf("HTTP %d status %q (%s), want 504 deadline", code, jr.Status, jr.Error)
	}
	_, at, ok := strings.Cut(jr.Error, " at cycle ")
	cycle, err := strconv.ParseUint(at, 10, 64)
	if !ok || err != nil {
		t.Fatalf("no stop cycle in %q", jr.Error)
	}
	if cycle >= 1<<20 {
		t.Errorf("stopped at cycle %d, want below %d (one short slice past the deadline)", cycle, 1<<20)
	}
}

// TestRequestValidation: malformed requests are refused with 400 before
// consuming a queue slot.
func TestRequestValidation(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  JobRequest
	}{
		{"no program", JobRequest{}},
		{"both forms", JobRequest{Source: "main:\n", Image: []byte{1}}},
		{"bad lang", JobRequest{Source: "x", Lang: "rust"}},
		{"lang with image", JobRequest{Image: []byte{1}, Lang: "s"}},
		// Regression: bankBytes used to be silently ignored for image
		// jobs, running the image on a different machine geometry than
		// the one its data layout was assembled for.
		{"bank with image", JobRequest{Image: []byte{1}, BankBytes: 1 << 16}},
		{"negative cores", JobRequest{Source: "x", Cores: -1}},
		{"cores beyond MaxCores", JobRequest{Source: "x", Cores: 1025}},
		{"bank not power of two", JobRequest{Source: "x", BankBytes: 12345}},
		{"bank below the compiler reserve", JobRequest{Source: "x", BankBytes: 1024}},
		{"bank equal to the compiler reserve", JobRequest{Source: "x", BankBytes: 4096}},
		{"negative ring", JobRequest{Source: "x", Ring: -1}},
		{"negative deadline", JobRequest{Source: "x", DeadlineMs: -1}},
		{"budget over cap", JobRequest{Source: "x", MaxCycles: 1 << 62}},
		{"compile error", JobRequest{Source: "void main() { undefined_fn(); }"}},
		{"bad assembly", JobRequest{Source: "not an instruction", Lang: "s"}},
	}
	for _, tc := range cases {
		code, jr := postJob(t, ts.URL, tc.req)
		if code != http.StatusBadRequest || jr.Error == "" {
			t.Errorf("%s: HTTP %d error %q, want 400 with a message", tc.name, code, jr.Error)
		}
	}
	if got := srv.met.accepted.Load(); got != 0 {
		t.Errorf("accepted counter = %d after validation failures, want 0", got)
	}
}

// TestSizingDirectiveRefused: a few bytes of assembly that name a huge
// output (.space 0x10000000 used to cost 7 s and a 256 MiB slice,
// .space 0xfffffffc 4 GiB and the process) — directly or as a MiniC
// array — are refused by the assembler's layout step with 400, before
// anything is allocated for them.
func TestSizingDirectiveRefused(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, req := range []JobRequest{
		{Source: ".data\n.space 0x10000000", Lang: "s"},
		{Source: ".data\n.space 0xfffffffc", Lang: "s"},
		{Source: "int a[268435456];\nvoid main() { a[0] = 1; }"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, jr := postJob(t, ts.URL, req)
		runtime.ReadMemStats(&after)
		if code != http.StatusBadRequest || !strings.Contains(jr.Error, "program larger than") {
			t.Errorf("%q: HTTP %d error %q, want 400 from the assembler's size bound", req.Source, code, jr.Error)
		}
		if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20 {
			t.Errorf("%q: refusing it allocated %d bytes", req.Source, spent)
		}
	}
}

// TestHealthzAndMetrics: liveness answers ok and the metrics page
// carries the documented series.
func TestHealthzAndMetrics(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d, want 200", resp.StatusCode)
	}

	if code, jr := postJob(t, ts.URL, JobRequest{Source: vecsumSource, Cores: 2, Digest: true}); code != http.StatusOK {
		t.Fatalf("job: HTTP %d (%s)", code, jr.Error)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	for _, series := range []string{
		"lbp_serve_jobs_accepted_total 1",
		"lbp_serve_jobs_completed_total 1",
		"lbp_serve_jobs_rejected_total 0",
		"lbp_serve_jobs_failed_total 0",
		"lbp_serve_queue_depth 0",
		"lbp_serve_pool_misses_total 1",
		"lbp_serve_sim_cycles_total",
		"lbp_serve_sim_cycles_per_second",
		"lbp_serve_last_job_sim_cycles_per_second",
	} {
		if !strings.Contains(page, series) {
			t.Errorf("metrics page missing %q:\n%s", series, page)
		}
	}
	// Nothing behind the result cache is keyed by program any more.
	for _, gone := range []string{"decode_cache", "dispatch_steals"} {
		if strings.Contains(page, gone) {
			t.Errorf("metrics page still has a %q series:\n%s", gone, page)
		}
	}
	// A job completed, so the per-job throughput gauge must be nonzero.
	if strings.Contains(page, "lbp_serve_last_job_sim_cycles_per_second 0\n") {
		t.Errorf("last-job throughput gauge is zero after a completed job:\n%s", page)
	}
}

// readAll drains a response body as a string and closes it.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// postJobRaw submits one job and returns the raw response body along
// with the decoded result, for byte-level payload comparisons.
func postJobRaw(t *testing.T, url string, req JobRequest) (int, []byte, *JobResult) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte(readAll(t, resp))
	var jr JobResult
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v\n%s", resp.StatusCode, err, raw)
	}
	return resp.StatusCode, raw, &jr
}

// stripHostFields removes the host-side diagnostic fields from a raw
// JSON response, leaving only the deterministic payload.
func stripHostFields(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"id", "cached", "poolWarm", "queueMs", "runMs"} {
		delete(m, k)
	}
	b, err := json.Marshal(m) // map keys marshal sorted: a canonical form
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// newCachedServer builds a server backed by a fresh result cache and
// returns the cache directory for the test that damages a segment file.
func newCachedServer(t *testing.T, maxBytes int64, cfg Config) (*Server, *cache.Store, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := cache.Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	cfg.Cache = store
	return New(cfg), store, dir
}

// TestCacheHitRoundTrip is the tentpole acceptance test: a repeated
// job is served from the cache without simulating a cycle, and every
// deterministic field of the cached response is byte-identical to the
// cold run's.
func TestCacheHitRoundTrip(t *testing.T) {
	srv, store, _ := newCachedServer(t, 0, Config{Workers: 2, QueueDepth: 8})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := JobRequest{Source: vecsumSource, Cores: 2, Digest: true, Ring: 4, Profile: true}
	code, coldRaw, cold := postJobRaw(t, ts.URL, req)
	if code != http.StatusOK || cold.Status != StatusOK || cold.Cached {
		t.Fatalf("cold run: HTTP %d status %q cached=%v (%s)", code, cold.Status, cold.Cached, cold.Error)
	}
	cyclesAfterCold := srv.met.simCycles.Load()
	poolAfterCold := srv.exec.PoolStats()

	code, warmRaw, warm := postJobRaw(t, ts.URL, req)
	if code != http.StatusOK || warm.Status != StatusOK || !warm.Cached {
		t.Fatalf("repeat run: HTTP %d status %q cached=%v (%s)", code, warm.Status, warm.Cached, warm.Error)
	}
	if got, want := stripHostFields(t, warmRaw), stripHostFields(t, coldRaw); got != want {
		t.Errorf("cached payload differs from cold run:\ncold: %s\nwarm: %s", want, got)
	}
	if got := srv.met.simCycles.Load(); got != cyclesAfterCold {
		t.Errorf("cache hit simulated %d cycles, want 0", got-cyclesAfterCold)
	}
	if pool := srv.exec.PoolStats(); pool != poolAfterCold {
		t.Errorf("cache hit touched the machine pool: %+v -> %+v", poolAfterCold, pool)
	}
	if hits, misses := srv.met.cacheHits.Load(), srv.met.cacheMisses.Load(); hits != 1 || misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if st := store.Stats(); st.Entries != 1 {
		t.Errorf("store holds %d entries, want 1", st.Entries)
	}
	if warm.ID == cold.ID || warm.ID == "" {
		t.Errorf("cached response ID %q must be fresh (cold was %q)", warm.ID, cold.ID)
	}

	// The /metrics page reports the traffic.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page := readAll(t, resp)
	for _, series := range []string{
		"lbp_serve_cache_hits_total 1",
		"lbp_serve_cache_misses_total 1",
		"lbp_serve_cache_entries 1",
		"lbp_serve_cache_bytes",
	} {
		if !strings.Contains(page, series) {
			t.Errorf("metrics page missing %q", series)
		}
	}
}

// parentCacheKey is the content address, and
// testdata/parent_cache_payload.json the bytes, of the cache entry the
// commit before the one-executor refactor (PR 13) stored for the request
// in TestCachePayloadCompatible.
const parentCacheKey = "771b58416a2b4b22543d70c00b126fa8f5341da508405b0a116c342573b2e2f0"

// TestCachePayloadCompatible pins the cache contract across the
// refactor of the job path: the same request still hashes to the same
// key, a cold run still stores byte-identical payload bytes, and a
// cache written by the parent is hit and answered with exactly its
// deterministic fields.
func TestCachePayloadCompatible(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent_cache_payload.json"))
	if err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Source: vecsumSource, Cores: 2, Digest: true, Ring: 4, Profile: true}

	srv, coldStore, _ := newCachedServer(t, 0, Config{Workers: 1, QueueDepth: 4})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, _, jr := postJobRaw(t, ts.URL, req); code != http.StatusOK || jr.Cached {
		t.Fatalf("cold run: HTTP %d cached=%v (%s)", code, jr.Cached, jr.Error)
	}
	stored, ok := coldStore.Get(parentCacheKey)
	if !ok {
		t.Fatal("the cold run stored nothing under the parent's key")
	}
	if !bytes.Equal(stored, fixture) {
		t.Errorf("stored payload differs from the parent's:\nparent: %s\nnow:    %s", fixture, stored)
	}

	seeded, store, _ := newCachedServer(t, 0, Config{Workers: 1, QueueDepth: 4})
	defer seeded.Shutdown(context.Background())
	if err := store.Put(parentCacheKey, fixture); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(seeded.Handler())
	defer ts2.Close()
	code, raw, jr := postJobRaw(t, ts2.URL, req)
	if code != http.StatusOK || !jr.Cached {
		t.Fatalf("job against the parent's cache: HTTP %d cached=%v, want a hit", code, jr.Cached)
	}
	if got, want := stripHostFields(t, raw), stripHostFields(t, fixture); got != want {
		t.Errorf("hit differs from the parent's payload:\nparent: %s\nhit:    %s", want, got)
	}
	if got := seeded.exec.Metrics().CheckedOut; got != 0 {
		t.Errorf("the hit checked out %d machines, want 0", got)
	}
}

// TestCacheCorruptEntry: an entry that is not the finished run its key
// promises serves as a miss — the job re-simulates cold, repairs the
// entry, and the next repeat hits again. Corruption never surfaces as an
// error, and never as an answer: a payload that is valid JSON but not a
// finished run (`{}` and `null` decode into a JobResult without error;
// only StatusOK runs are ever stored) used to come back as a cached 200
// with status "" and zero cycles, and one whose digest lost a bit on
// disk — still JSON, still "ok" — as a cached 200 with a wrong digest,
// until records carried a CRC.
func TestCacheCorruptEntry(t *testing.T) {
	for _, tc := range []struct{ name, payload string }{
		{"truncated object", `{"cycles": 12`},
		{"empty object", `{}`},
		{"null", `null`},
		{"a run that did not finish", `{"status":"error","cycles":7}`},
		{"a digest digit flipped on disk", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, store, cacheDir := newCachedServer(t, 0, Config{Workers: 1, QueueDepth: 4})
			defer srv.Shutdown(context.Background())
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			req := JobRequest{Source: vecsumSource, Cores: 2, Digest: true}
			code, _, cold := postJobRaw(t, ts.URL, req)
			if code != http.StatusOK || cold.Cached {
				t.Fatalf("cold run: HTTP %d cached=%v (%s)", code, cold.Cached, cold.Error)
			}
			if tc.payload != "" {
				// Well-formed as far as the store can tell: only the
				// serving layer knows what a finished run looks like.
				if err := store.Put(cacheKeyOf(t, req, srv.cfg.defaultMaxCycles()), []byte(tc.payload)); err != nil {
					t.Fatal(err)
				}
			} else {
				flipDigestDigit(t, cacheDir, cold.Digest)
			}

			code, _, jr := postJobRaw(t, ts.URL, req)
			if code != http.StatusOK || jr.Status != StatusOK || jr.Cached || jr.Cycles != cold.Cycles || jr.Digest != cold.Digest {
				t.Fatalf("post-corruption run: HTTP %d status %q cached=%v cycles %d digest %#x (%s) — corruption must mean re-simulate, not fail and not answer",
					code, jr.Status, jr.Cached, jr.Cycles, jr.Digest, jr.Error)
			}
			if code, _, jr := postJobRaw(t, ts.URL, req); code != http.StatusOK || !jr.Cached || jr.Digest != cold.Digest {
				t.Errorf("post-repair run: HTTP %d cached=%v digest %#x, want a hit again", code, jr.Cached, jr.Digest)
			}
			if hits, misses := srv.met.cacheHits.Load(), srv.met.cacheMisses.Load(); hits != 1 || misses != 2 {
				t.Errorf("cache hits/misses = %d/%d, want 1/2", hits, misses)
			}
		})
	}
}

// flipDigestDigit rewrites one digit of digest inside the cache
// directory's one segment file: the stored payload stays well-formed
// JSON with status "ok", and is no longer the run's result.
func flipDigestDigit(t *testing.T, cacheDir string, digest uint64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(cacheDir, "seg-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segment files = %v (err %v), want exactly 1", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(strconv.FormatUint(digest, 10)))
	if at < 0 {
		t.Fatalf("digest %d not found in %s", digest, segs[0])
	}
	data[at+1] ^= 1 // '4' becomes '5', '5' becomes '4': still a digit
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheEviction: a byte-bounded cache sheds its oldest results; the
// evicted job simply simulates cold again.
func TestCacheEviction(t *testing.T) {
	// maxBytes 1: each stored payload survives only as the sole entry.
	srv, store, _ := newCachedServer(t, 1, Config{Workers: 1, QueueDepth: 4})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqA := JobRequest{Source: spinSource, Lang: "s", Cores: 1, Digest: true, MaxCycles: 20_000_000}
	reqB := reqA
	reqB.MaxCycles = 30_000_000 // different budget, different content address
	if code, _, jr := postJobRaw(t, ts.URL, reqA); code != http.StatusOK || jr.Cached {
		t.Fatalf("job A: HTTP %d cached=%v", code, jr.Cached)
	}
	if code, _, jr := postJobRaw(t, ts.URL, reqB); code != http.StatusOK || jr.Cached {
		t.Fatalf("job B: HTTP %d cached=%v", code, jr.Cached)
	}
	// B's store evicted A, so A is cold again.
	if code, _, jr := postJobRaw(t, ts.URL, reqA); code != http.StatusOK || jr.Cached {
		t.Errorf("job A after eviction: HTTP %d cached=%v, want a cold run", code, jr.Cached)
	}
	st := store.Stats()
	if st.Evictions == 0 || st.Entries != 1 {
		t.Errorf("store stats = %+v, want evictions > 0 and exactly 1 entry", st)
	}
	if hits := srv.met.cacheHits.Load(); hits != 0 {
		t.Errorf("cache hits = %d, want 0 (every lookup should have missed)", hits)
	}
}

// TestCacheConcurrentIdenticalRequests: identical jobs racing on an
// empty cache must all answer correctly — some simulate, some hit, all
// byte-identical in the deterministic fields. Runs under -race in
// tier-1 to cover the concurrent Get/Put paths.
func TestCacheConcurrentIdenticalRequests(t *testing.T) {
	srv, store, _ := newCachedServer(t, 0, Config{Workers: 4, QueueDepth: 64})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := JobRequest{Source: vecsumSource, Cores: 2, Digest: true}
	const clients = 10
	raws := make([][]byte, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], raws[i], _ = postJobRaw(t, ts.URL, req)
		}(i)
	}
	wg.Wait()
	want := stripHostFields(t, raws[0])
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Errorf("client %d: HTTP %d", i, codes[i])
			continue
		}
		if got := stripHostFields(t, raws[i]); got != want {
			t.Errorf("client %d payload diverged:\nwant %s\ngot  %s", i, want, got)
		}
	}
	if st := store.Stats(); st.Entries != 1 {
		t.Errorf("store holds %d entries after identical racing jobs, want 1", st.Entries)
	}
}

// TestOversizedBody413: a request body over the cap answers 413
// Request Entity Too Large, not a generic 400. The cap bounds the whole
// body, not just its first JSON value: a valid job padded past it is
// refused, while bytes after the value and under the cap are ignored.
func TestOversizedBody413(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big, err := json.Marshal(JobRequest{Source: strings.Repeat("x", maxBodyBytes), Lang: "s"})
	if err != nil {
		t.Fatal(err)
	}
	job := fmt.Sprintf(`{"source":%q,"lang":"s","cores":1,"digest":true}`, exitAsm)
	for _, tc := range []struct {
		name string
		body string
		code int
	}{
		{"a source as long as the cap", string(big), http.StatusRequestEntityTooLarge},
		{"a valid job padded one byte past the cap", job + strings.Repeat(" ", maxBodyBytes+1-len(job)), http.StatusRequestEntityTooLarge},
		{"a valid job and bytes after it, under the cap", job + "  and then some", http.StatusOK},
		{"a small bad request", `{"source":"x","lang":"rust"}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var jr JobResult
		if err := json.Unmarshal([]byte(readAll(t, resp)), &jr); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code || (tc.code != http.StatusOK) != (jr.Error != "") {
			t.Errorf("%s (%d bytes): HTTP %d error %q, want %d", tc.name, len(tc.body), resp.StatusCode, jr.Error, tc.code)
		}
	}
}

// TestCanceledJobReturnsMachineToPool: a client that goes away mid-run
// must not cost the pool its machine — GetWarm resets on checkout, so
// the half-run machine is exactly as reusable as a finished one.
func TestCanceledJobReturnsMachineToPool(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := JobRequest{Source: spinSource, Lang: "s", Cores: 1, Digest: true, MaxCycles: 400_000_000}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var canceled uint64
	cancelOne := func() {
		ctx, cancel := context.WithCancel(context.Background())
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			resp, err := http.DefaultClient.Do(hr)
			if err == nil {
				resp.Body.Close()
			}
			close(done)
		}()
		waitFor(t, "job running", func() bool { return running(srv) == 1 })
		cancel()
		<-done
		// The handler counts the job after the dispatcher lets it go:
		// wait for both, or the counter check below races the handler.
		canceled++
		waitFor(t, "job finished and counted", func() bool {
			return running(srv) == 0 && srv.met.failed.Load() == canceled
		})
	}

	cancelOne()
	if idle := srv.exec.PoolIdle(); idle != 1 {
		t.Fatalf("pool idle = %d after canceled job, want 1 (machine returned)", idle)
	}
	cancelOne() // the second canceled job must reuse the returned machine
	st := srv.exec.PoolStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("pool stats = %+v, want the second canceled job served warm (1 hit, 1 miss)", st)
	}
	if got := srv.met.failed.Load(); got != 2 {
		t.Errorf("failed counter = %d, want 2 canceled jobs", got)
	}
	if got := srv.exec.Metrics().PoolDiscarded; got != 0 {
		t.Errorf("pool_discarded = %d, want 0 (nothing was preempted)", got)
	}
}

// TestDeadlineAndErrorJobsReturnMachines: the deadline and
// budget-exceeded paths also hand their machines back.
func TestDeadlineAndErrorJobsReturnMachines(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	deadline := JobRequest{Source: spinSource, Lang: "s", Cores: 1, MaxCycles: 500_000_000, DeadlineMs: 30}
	if code, jr := postJob(t, ts.URL, deadline); code != http.StatusGatewayTimeout {
		t.Fatalf("deadline job: HTTP %d (%s), want 504", code, jr.Error)
	}
	if idle := srv.exec.PoolIdle(); idle != 1 {
		t.Errorf("pool idle = %d after deadline, want 1", idle)
	}

	budget := JobRequest{Source: spinSource, Lang: "s", Cores: 1, MaxCycles: 10_000}
	code, jr := postJob(t, ts.URL, budget)
	if code != http.StatusUnprocessableEntity || jr.Status != StatusError {
		t.Fatalf("budget job: HTTP %d status %q (%s), want 422 error", code, jr.Status, jr.Error)
	}
	// Same pool key as the deadline job — MaxCycles is not part of it —
	// so this ran on that machine, warm, under its own 10k budget, and
	// handed it back.
	if idle := srv.exec.PoolIdle(); idle != 1 || !jr.PoolWarm {
		t.Errorf("pool idle = %d, warm = %v after budget fault, want the one machine reused and idle", idle, jr.PoolWarm)
	}
	if got := srv.exec.Metrics().PoolDiscarded; got != 0 {
		t.Errorf("pool_discarded = %d, want 0", got)
	}
}
