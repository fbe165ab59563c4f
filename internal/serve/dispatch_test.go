package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dispatch"
)

// startWorkerBackend boots one in-process dispatch worker on an
// ephemeral port and returns its address and a stop func.
func startWorkerBackend(t *testing.T) (*dispatch.Worker, string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := dispatch.NewWorker(dispatch.WorkerConfig{})
	go w.Serve(ln)
	return w, ln.Addr().String(), func() { w.Close() }
}

// newCoordinatorServer wires a serve.Server in coordinator mode over
// the given backends.
func newCoordinatorServer(t *testing.T, scfg Config, dcfg dispatch.Config) (*Server, *dispatch.Coordinator, *httptest.Server) {
	t.Helper()
	coord, err := dispatch.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Dispatcher = coord
	srv := New(scfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
		coord.Close()
	})
	return srv, coord, ts
}

// distSpinSource is a short countdown loop (~150k cycles): long enough
// that a mid-campaign worker kill lands inside running jobs and
// checkpoints stream, short enough for the race detector on small
// hosts (the local-path tests use the 10× longer spinSource).
const distSpinSource = `main:
	li t1, 50000
loop:
	addi t1, t1, -1
	bne t1, zero, loop
	li ra, 0
	li t0, -1
	p_ret
`

// TestDistributedDeterminismUnderLoad is the distributed acceptance
// test: K concurrent clients × M worker backends, with one worker
// killed mid-campaign, and every successful response must carry
// exactly the cycles, retired count, digest and perf snapshot of a
// direct sim.Session run of the same request — whichever backend ran
// it, however many times it was re-dispatched. Runs under -race in
// tier-1.
func TestDistributedDeterminismUnderLoad(t *testing.T) {
	reqs := []JobRequest{
		{Source: vecsumSource, Cores: 2, Digest: true, Profile: true},
		{Source: vecsumSource, Cores: 4, Digest: true, Profile: true},
		{Source: distSpinSource, Lang: "s", Cores: 1, Digest: true, Profile: true, MaxCycles: 400_000_000},
	}
	wants := make([]*JobResult, len(reqs))
	for i, r := range reqs {
		wants[i] = directRun(t, r, 100_000_000)
	}

	const backendsN = 3
	workers := make([]*dispatch.Worker, backendsN)
	addrs := make([]string, backendsN)
	stops := make([]func(), backendsN)
	for i := range workers {
		// A small slice so kills land mid-run, not between jobs.
		workers[i], addrs[i], stops[i] = startWorkerBackend(t)
		defer stops[i]()
	}
	srv, coord, ts := newCoordinatorServer(t, Config{},
		dispatch.Config{
			Backends:        addrs,
			RetryBackoff:    10 * time.Millisecond,
			CheckpointEvery: 64 << 10,
		})

	const rounds = 6 // clients per request: K = rounds × len(reqs)
	type reply struct {
		code int
		res  *JobResult
		req  int
	}
	replies := make(chan reply, rounds*len(reqs))
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for ri := range reqs {
			wg.Add(1)
			go func(ri int) {
				defer wg.Done()
				code, res := postJob(t, ts.URL, reqs[ri])
				replies <- reply{code, res, ri}
			}(ri)
		}
	}
	// Kill one worker once the campaign is demonstrably in flight:
	// whatever it was running goes back to the front of the queue (to
	// resume from a checkpoint when one streamed in time) and the dead
	// backend takes nothing further.
	waitFor(t, "campaign in flight", func() bool {
		return coord.Metrics().Dispatched >= backendsN
	})
	stops[0]()
	wg.Wait()
	close(replies)

	perReq := make([]int, len(reqs))
	for r := range replies {
		if r.code != http.StatusOK || r.res.Status != StatusOK {
			t.Errorf("req %d: HTTP %d status %q (%s)", r.req, r.code, r.res.Status, r.res.Error)
			continue
		}
		perReq[r.req]++
		want := wants[r.req]
		got := r.res
		if got.Halt != want.Halt || got.Cycles != want.Cycles || got.Retired != want.Retired ||
			got.Digest != want.Digest || got.Events != want.Events {
			t.Errorf("req %d via %s diverged: halt=%q cycles=%d retired=%d digest=%#x events=%d,"+
				" want halt=%q cycles=%d retired=%d digest=%#x events=%d",
				r.req, got.Worker, got.Halt, got.Cycles, got.Retired, got.Digest, got.Events,
				want.Halt, want.Cycles, want.Retired, want.Digest, want.Events)
		}
		if got.Perf == nil || got.Perf.HartCycles != want.Perf.HartCycles ||
			got.Perf.CommitCycles != want.Perf.CommitCycles {
			t.Errorf("req %d: perf snapshot diverged: %+v, want %+v", r.req, got.Perf, want.Perf)
		}
		if got.Mem == nil || *got.Mem != *want.Mem {
			t.Errorf("req %d: memory stats diverged: %+v, want %+v", r.req, got.Mem, want.Mem)
		}
		if got.Worker == "" {
			t.Errorf("req %d: result carries no worker address", r.req)
		}
	}
	for ri, n := range perReq {
		if n != rounds {
			t.Errorf("req %d: %d/%d successful replies", ri, n, rounds)
		}
	}
	if got := srv.met.completed.Load(); got != uint64(rounds*len(reqs)) {
		t.Errorf("completed counter = %d, want %d", got, rounds*len(reqs))
	}
	// The surviving workers must not leak a single machine, whatever
	// mix of clean runs and re-dispatched jobs they absorbed.
	waitFor(t, "surviving workers idle", func() bool {
		return workers[1].Metrics().MachinesOut == 0 && workers[2].Metrics().MachinesOut == 0
	})
	for i := 1; i < backendsN; i++ {
		m := workers[i].Metrics()
		if m.CheckedOut != m.PoolReturned+m.PoolDiscarded {
			t.Errorf("worker %d leaks machines: %+v", i, m)
		}
	}
}

// TestDistributedCacheAndStatusMapping: in coordinator mode the shared
// result cache still answers repeat jobs without a dispatch, cached
// payloads zero the host-side worker field, and a job whose machine
// runs out of cycle budget maps to 422 exactly like the local path.
func TestDistributedCacheAndStatusMapping(t *testing.T) {
	store, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	_, addr, stop := startWorkerBackend(t)
	defer stop()
	_, coord, ts := newCoordinatorServer(t, Config{Cache: store},
		dispatch.Config{Backends: []string{addr}})

	req := JobRequest{Source: vecsumSource, Cores: 2, Digest: true}
	code, cold := postJob(t, ts.URL, req)
	if code != http.StatusOK || cold.Cached {
		t.Fatalf("cold job: HTTP %d cached=%v (%s)", code, cold.Cached, cold.Error)
	}
	if cold.Worker == "" {
		t.Error("cold result carries no worker address")
	}
	code, warm := postJob(t, ts.URL, req)
	if code != http.StatusOK || !warm.Cached {
		t.Fatalf("repeat job: HTTP %d cached=%v, want a cache hit", code, warm.Cached)
	}
	if warm.Worker != "" {
		t.Errorf("cached result names worker %q, want host fields zeroed", warm.Worker)
	}
	if warm.Digest != cold.Digest || warm.Cycles != cold.Cycles {
		t.Errorf("cache hit diverged: digest %#x cycles %d, want %#x %d",
			warm.Digest, warm.Cycles, cold.Digest, cold.Cycles)
	}
	if got := coord.Metrics().Dispatched; got != 1 {
		t.Errorf("dispatched = %d after a cache hit, want 1", got)
	}

	code, res := postJob(t, ts.URL, JobRequest{Source: spinSource, Lang: "s", Cores: 1, MaxCycles: 1000})
	if code != http.StatusUnprocessableEntity || res.Status != StatusError {
		t.Errorf("budget-exceeded job: HTTP %d status %q, want 422 %q", code, res.Status, StatusError)
	}
	if !strings.Contains(res.Error, "cycle") {
		t.Errorf("budget error %q does not mention the cycle budget", res.Error)
	}
}

// TestDistributedAllBackendsDead: when no worker is reachable the
// client gets 502 with a dispatch failure, not a hang.
func TestDistributedAllBackendsDead(t *testing.T) {
	_, _, ts := newCoordinatorServer(t, Config{},
		dispatch.Config{
			Backends:     []string{"127.0.0.1:1", "127.0.0.1:2"},
			RetryBackoff: time.Millisecond,
			DialTimeout:  50 * time.Millisecond,
		})
	code, res := postJob(t, ts.URL, JobRequest{Source: vecsumSource, Cores: 2})
	if code != http.StatusBadGateway || res.Status != StatusError {
		t.Errorf("dead fleet: HTTP %d status %q, want 502 %q", code, res.Status, StatusError)
	}
}

// refusingDispatcher answers every Do with a fixed error.
type refusingDispatcher struct{ err error }

func (d refusingDispatcher) Do(context.Context, *dispatch.Job) (*dispatch.Result, error) {
	return nil, d.err
}

func (refusingDispatcher) Metrics() dispatch.Metrics { return dispatch.Metrics{} }

// TestDistributedRefusalCounters: a fleet refusal counts like the local
// path's — 429 (queue full) as rejected only, 503 (closed) as nothing —
// and only a job the fleet took and then lost counts as accepted and
// failed.
func TestDistributedRefusalCounters(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		err                        error
		code                       int
		accepted, rejected, failed int
	}{
		{"queue full", dispatch.ErrQueueFull, http.StatusTooManyRequests, 0, 1, 0},
		{"closed", dispatch.ErrClosed, http.StatusServiceUnavailable, 0, 0, 0},
		{"exhausted", errors.New("every backend failed"), http.StatusBadGateway, 1, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{Dispatcher: refusingDispatcher{tc.err}})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Shutdown(context.Background())
			if code, _ := postJob(t, ts.URL, JobRequest{Source: vecsumSource, Cores: 2}); code != tc.code {
				t.Errorf("HTTP %d, want %d", code, tc.code)
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			page := readAll(t, resp)
			for _, series := range []string{
				fmt.Sprintf("lbp_serve_jobs_accepted_total %d\n", tc.accepted),
				fmt.Sprintf("lbp_serve_jobs_rejected_total %d\n", tc.rejected),
				fmt.Sprintf("lbp_serve_jobs_failed_total %d\n", tc.failed),
			} {
				if !strings.Contains(page, series) {
					t.Errorf("metrics page missing %q", strings.TrimSpace(series))
				}
			}
		})
	}
}

// panicSource makes the simulator panic: the load's result buffer is
// taken over by an ALU op with rd = x0, and the load's response then
// indexes no ROB slot. The simulator defect stays; the service must
// answer it like any other machine fault.
const panicSource = `main:
	li t1, 0x80000000
	lw t2, 0(t1)
	addi zero, zero, 0
	addi t3, t2, 1
	li t0, -1
	li ra, 0
	p_ret
`

// TestPanickingJobIsAnAnswer: a job the simulator panics on is a 422
// error that is not cached and not retried, on either kind of backend;
// the server (and every worker) survives it, the machine is discarded
// through the usual accounting, and the next job is answered.
func TestPanickingJobIsAnAnswer(t *testing.T) {
	for _, mode := range []string{"local", "coordinator+2workers"} {
		t.Run(mode, func(t *testing.T) {
			store, err := cache.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			var ts *httptest.Server
			var coord *dispatch.Coordinator
			var executors []*dispatch.Executor
			if mode == "local" {
				srv := New(Config{Cache: store})
				ts = httptest.NewServer(srv.Handler())
				defer func() {
					ts.Close()
					srv.Shutdown(context.Background())
				}()
				executors = []*dispatch.Executor{srv.exec}
			} else {
				w1, addr1, stop1 := startWorkerBackend(t)
				defer stop1()
				w2, addr2, stop2 := startWorkerBackend(t)
				defer stop2()
				_, coord, ts = newCoordinatorServer(t, Config{Cache: store},
					dispatch.Config{Backends: []string{addr1, addr2}})
				executors = []*dispatch.Executor{w1.Executor, w2.Executor}
			}
			bad := JobRequest{Source: panicSource, Lang: "s", Cores: 1}
			for i := 0; i < 2; i++ {
				code, res := postJob(t, ts.URL, bad)
				if code != http.StatusUnprocessableEntity || res.Status != StatusError || res.Cached ||
					!strings.Contains(res.Error, "simulator panic") {
					t.Fatalf("panicking job, post %d: HTTP %d status %q cached=%v error %q, want 422 %q naming the panic, not cached",
						i+1, code, res.Status, res.Cached, res.Error, StatusError)
				}
			}
			code, res := postJob(t, ts.URL, JobRequest{Source: vecsumSource, Cores: 2, Digest: true})
			if code != http.StatusOK || res.Status != StatusOK {
				t.Fatalf("job after the panics: HTTP %d status %q (%s), want 200", code, res.Status, res.Error)
			}
			var errored, discarded uint64
			for i, e := range executors {
				m := e.Metrics()
				if m.MachinesOut != 0 || m.CheckedOut != m.PoolReturned+m.PoolDiscarded {
					t.Errorf("executor %d leaked: %+v", i, m)
				}
				errored += m.Errored
				discarded += m.PoolDiscarded
			}
			if errored != 2 || discarded != 2 {
				t.Errorf("errored=%d discarded=%d, want both panicked runs counted errored and their machines discarded", errored, discarded)
			}
			if coord != nil {
				if m := coord.Metrics(); m.Retries != 0 || m.BackendsUp != 2 {
					t.Errorf("coordinator retries=%d backends up=%d, want 0 and 2: a job's panic is its answer, not a dead worker", m.Retries, m.BackendsUp)
				}
			}
		})
	}
}
