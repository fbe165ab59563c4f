package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dispatch"
)

// holdSource never exits: it occupies a worker until its client
// cancels, its deadline elapses or a shutdown preempts it.
const holdSource = `main:
	li t1, 1
loop:
	bne t1, zero, loop
`

// servingMode builds one server per backend kind, both sized to one
// running job and one queued job per backend, both with a result cache
// and a checkpoint directory.
type servingMode struct {
	name     string
	backends int // running slots, and queue slots, in all
	start    func(t *testing.T, store *cache.Store, ckptDir string) *Server
}

var servingModes = []servingMode{
	{"local", 1, func(t *testing.T, store *cache.Store, ckptDir string) *Server {
		return New(Config{Workers: 1, QueueDepth: 1, Slice: 1024, Cache: store, CheckpointDir: ckptDir})
	}},
	{"coordinator+2workers", 2, func(t *testing.T, store *cache.Store, ckptDir string) *Server {
		var addrs []string
		for i := 0; i < 2; i++ {
			_, addr, stop := startWorkerBackend(t, dispatch.WorkerConfig{Slice: 1024})
			t.Cleanup(stop)
			addrs = append(addrs, addr)
		}
		coord, err := dispatch.New(dispatch.Config{Backends: addrs, PerBackend: 1, QueueDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close() })
		return New(Config{Cache: store, CheckpointDir: ckptDir, Dispatcher: coord})
	}},
}

// held is one request in flight on its own goroutine.
type held struct {
	cancel context.CancelFunc
	done   chan struct{}
	rec    *httptest.ResponseRecorder
}

// hold submits req straight to the handler, so the response is
// recorded even when the client's context is what ended the job.
func hold(t *testing.T, srv *Server, req JobRequest) *held {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &held{cancel: cancel, done: make(chan struct{}), rec: httptest.NewRecorder()}
	hr := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)).WithContext(ctx)
	go func() {
		defer close(h.done)
		srv.Handler().ServeHTTP(h.rec, hr)
	}()
	t.Cleanup(func() { cancel(); <-h.done })
	return h
}

// result waits for the held request's answer.
func (h *held) result(t *testing.T) (int, *JobResult) {
	t.Helper()
	select {
	case <-h.done:
	case <-time.After(30 * time.Second):
		t.Fatal("held request never answered")
	}
	var jr JobResult
	if err := json.Unmarshal(h.rec.Body.Bytes(), &jr); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v\n%s", h.rec.Code, err, h.rec.Body)
	}
	return h.rec.Code, &jr
}

// TestOneJobPathBothBackends drives every outcome of POST /jobs through
// an in-process backend and through a coordinator over two rpc workers
// and requires the same HTTP code, status and deterministic fields from
// both: there is one job path, and where a job ran must not show —
// except in the host-side "worker" field, absent in process.
func TestOneJobPathBothBackends(t *testing.T) {
	okReq := JobRequest{Source: vecsumSource, Cores: 2, Digest: true, Profile: true}
	want := directRun(t, okReq, 100_000_000)
	holdReq := JobRequest{Source: holdSource, Lang: "s", Cores: 1, MaxCycles: 1_000_000_000}

	for _, mode := range servingModes {
		inProcess := mode.name == "local"
		setup := func(t *testing.T) (*Server, *httptest.Server, string) {
			store, err := cache.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			ckptDir := t.TempDir()
			srv := mode.start(t, store, ckptDir)
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() {
				ts.Close()
				srv.Shutdown(context.Background()) // a second Shutdown only errors
				store.Close()
			})
			return srv, ts, ckptDir
		}
		expect := func(t *testing.T, what string, code int, jr *JobResult, wantCode int, wantStatus string) {
			t.Helper()
			if code != wantCode || jr.Status != wantStatus {
				t.Errorf("%s: HTTP %d status %q (%s), want %d %q", what, code, jr.Status, jr.Error, wantCode, wantStatus)
			}
		}

		t.Run(mode.name+"/ok", func(t *testing.T) {
			_, ts, _ := setup(t)
			code, raw, jr := postJobRaw(t, ts.URL, okReq)
			expect(t, "job", code, jr, http.StatusOK, StatusOK)
			if jr.Halt != want.Halt || jr.Cycles != want.Cycles || jr.Retired != want.Retired ||
				jr.IPC != want.IPC || jr.Digest != want.Digest || jr.Events != want.Events ||
				jr.Mem == nil || *jr.Mem != *want.Mem ||
				jr.Perf == nil || jr.Perf.HartCycles != want.Perf.HartCycles {
				t.Errorf("deterministic fields diverged from a direct run: %+v, want %+v", jr, want)
			}
			if hasWorker := bytes.Contains(raw, []byte(`"worker"`)); hasWorker == inProcess {
				t.Errorf("response has a worker field: %v, in process: %v\n%s", hasWorker, inProcess, raw)
			}
		})

		t.Run(mode.name+"/cycle budget", func(t *testing.T) {
			_, ts, _ := setup(t)
			code, jr := postJob(t, ts.URL, JobRequest{Source: spinSource, Lang: "s", Cores: 1, MaxCycles: 10_000})
			expect(t, "job", code, jr, http.StatusUnprocessableEntity, StatusError)
			if !strings.Contains(jr.Error, "cycle") {
				t.Errorf("error %q does not mention the cycle budget", jr.Error)
			}
		})

		t.Run(mode.name+"/deadline", func(t *testing.T) {
			_, ts, _ := setup(t)
			req := holdReq
			req.DeadlineMs = 30
			code, jr := postJob(t, ts.URL, req)
			expect(t, "job", code, jr, http.StatusGatewayTimeout, StatusDeadline)
			if jr.RunMs < 30 {
				t.Errorf("runMs = %g for a job stopped by a 30 ms deadline", jr.RunMs)
			}
		})

		t.Run(mode.name+"/client cancel", func(t *testing.T) {
			srv, _, _ := setup(t)
			h := hold(t, srv, holdReq)
			waitFor(t, "job running", func() bool { return running(srv) == 1 })
			h.cancel()
			code, jr := h.result(t)
			expect(t, "canceled job", code, jr, statusClientClosedRequest, StatusCanceled)
			waitFor(t, "job gone", func() bool { return running(srv) == 0 })
		})

		t.Run(mode.name+"/queue full", func(t *testing.T) {
			srv, ts, _ := setup(t)
			// Every running slot of every backend, then every queue slot:
			// the queued jobs run once the first are gone and are stopped
			// by their own deadline.
			n := mode.backends
			var first []*held
			for i := 0; i < n; i++ {
				first = append(first, hold(t, srv, holdReq))
			}
			waitFor(t, "first jobs running", func() bool { return running(srv) == n })
			req := holdReq
			req.DeadlineMs = 50
			var second []*held
			for i := 0; i < n; i++ {
				second = append(second, hold(t, srv, req))
			}
			waitFor(t, "second jobs queued", func() bool { return queued(srv) == n })

			body, err := json.Marshal(holdReq)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var jr JobResult
			if err := json.Unmarshal([]byte(readAll(t, resp)), &jr); err != nil {
				t.Fatal(err)
			}
			expect(t, "overflow", resp.StatusCode, &jr, http.StatusTooManyRequests, StatusRejected)
			if got := resp.Header.Get("Retry-After"); got != "1" {
				t.Errorf("Retry-After = %q, want 1", got)
			}
			resp, err = http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			page := readAll(t, resp)
			for _, series := range []string{
				fmt.Sprintf("lbp_serve_queue_depth %d\n", n), fmt.Sprintf("lbp_serve_jobs_inflight %d\n", n),
				"lbp_serve_jobs_rejected_total 1\n",
			} {
				if !strings.Contains(page, series) {
					t.Errorf("metrics page missing %q", strings.TrimSpace(series))
				}
			}

			for _, h := range first {
				h.cancel()
			}
			for _, h := range second {
				code, res := h.result(t)
				expect(t, "queued job", code, res, http.StatusGatewayTimeout, StatusDeadline)
				if res.QueueMs <= 0 || res.RunMs < 50 {
					t.Errorf("queueMs = %g, runMs = %g for a job that queued and then ran into a 50 ms deadline",
						res.QueueMs, res.RunMs)
				}
			}
		})

		t.Run(mode.name+"/draining then grace expiry", func(t *testing.T) {
			srv, ts, ckptDir := setup(t)
			h := hold(t, srv, holdReq)
			waitFor(t, "job running", func() bool { return running(srv) == 1 })

			grace, expire := context.WithCancel(context.Background())
			defer expire()
			shutdownDone := make(chan error, 1)
			go func() { shutdownDone <- srv.Shutdown(grace) }()
			waitFor(t, "draining", srv.draining)
			code, jr := postJob(t, ts.URL, okReq)
			expect(t, "post while draining", code, jr, http.StatusServiceUnavailable, StatusRejected)
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("healthz while draining: HTTP %d, want 503", resp.StatusCode)
			}

			expire()
			code, jr = h.result(t)
			expect(t, "preempted job", code, jr, http.StatusServiceUnavailable, StatusPreempted)
			if err := <-shutdownDone; err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if got := srv.met.preempted.Load(); got != 1 {
				t.Errorf("preempted counter = %d, want 1", got)
			}
			// Only a machine in this process can be checkpointed.
			if (jr.Checkpoint != "") != inProcess {
				t.Errorf("checkpoint %q, in process: %v (%s)", jr.Checkpoint, inProcess, jr.Error)
			}
			files, err := os.ReadDir(ckptDir)
			if err != nil {
				t.Fatal(err)
			}
			if (len(files) == 1) != inProcess {
				t.Errorf("%d files in the checkpoint dir, in process: %v", len(files), inProcess)
			}
		})
	}
}
