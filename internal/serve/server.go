// Package serve is the HTTP/JSON edge of the simulation service: it
// decodes and validates a job and compiles its program (none of it, for
// body bytes whose cache key it remembers), consults the result cache,
// and hands a miss to a Dispatcher — by default a
// dispatch.NewLocal coordinator over an in-process Executor (Workers
// concurrent jobs, QueueDepth waiting), with lbp-serve -backends a
// coordinator over worker processes. Nothing in this package simulates,
// and nothing in it depends on which of the two it is talking to
// (DESIGN.md §8 draws the whole job path).
//
// The serving layer preserves the simulator's determinism guarantee
// end to end: any client, any concurrency, any queue state, any
// backend — the deterministic fields of a JobResult (cycles, retired,
// digest, perf) are bit-identical to a local sim.Session run of the
// same request. Everything host-side (admission, slicing, deadlines,
// preemption) happens between Advance legs at cycle boundaries, where
// it cannot perturb simulated state.
//
// Because results are pure functions of the canonical job
// (sim.CacheKey), the server consults a content-addressed result cache
// (internal/cache) before simulating anything: a repeat job is an O(1)
// disk read answered with the byte-identical deterministic payload of
// the cold run, marked "cached": true. The key is a hash of the compiled
// image, so a memo of body bytes → key (frontIndex) spares a repeat the
// JSON decoder and the compiler as well.
//
// Backpressure and lifecycle:
//
//   - Admission is the coordinator's bounded queue; overflow answers
//     429 with Retry-After instead of queueing unboundedly.
//   - Each job runs under a simulated-cycle budget and a host
//     wall-clock deadline, enforced between Advance slices.
//   - Shutdown stops admission (503), waits for the jobs in flight,
//     and — once the grace context expires — preempts them: a job
//     running in process is checkpointed to disk for lbp-run -resume,
//     any other is answered 503 "preempted" without one.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/dispatch"
	"repro/internal/sim"
)

// Config parameterizes a Server. The zero value of every field selects
// a sensible default.
type Config struct {
	// Workers and QueueDepth size the in-process backend: concurrent
	// simulations (0 = GOMAXPROCS) and jobs admitted but not yet running
	// (0 = 64). A Dispatcher brings its own.
	Workers    int
	QueueDepth int

	// MaxCyclesCap is the largest acceptable per-job budget (0 = 1G). A
	// request without maxCycles gets min(100M, MaxCyclesCap).
	MaxCyclesCap uint64

	// Deadline is the default and maximum per-job wall-clock run time;
	// requests may only shorten it (0 = 60s).
	Deadline time.Duration

	// CheckpointDir receives the serialized machine state of in-process
	// jobs preempted by shutdown ("" = discard preempted state).
	CheckpointDir string

	// Cache, when non-nil, is the content-addressed result store
	// consulted before any cycle is simulated (nil = no caching).
	Cache *cache.Store

	// Dispatcher is where jobs that miss the cache run: nil selects an
	// in-process backend sized by the fields above, a
	// *dispatch.Coordinator over -backends shards them across worker
	// processes. The HTTP surface is the same either way.
	Dispatcher Dispatcher
}

// maxBodyBytes caps a request body, every byte of it.
const maxBodyBytes = 8 << 20

// normalize fills in the defaults.
func (c *Config) normalize() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxCyclesCap == 0 {
		c.MaxCyclesCap = 1_000_000_000
	}
	if c.Deadline <= 0 {
		c.Deadline = 60 * time.Second
	}
}

// defaultMaxCycles is the budget of a request that omits maxCycles:
// 100M cycles, or the cap when that is lower.
func (c *Config) defaultMaxCycles() uint64 { return min(100_000_000, c.MaxCyclesCap) }

// statusClientClosedRequest is the de-facto code for "client went away"
// (the client never sees it; it keeps access logs honest).
const statusClientClosedRequest = 499

// Dispatcher runs the jobs that miss the cache: a *dispatch.Coordinator
// in production — over an in-process Executor or over -backends
// workers — in tests anything that answers Do.
type Dispatcher interface {
	// Do runs one job and blocks until it resolves. See
	// dispatch.Coordinator.Do for the error contract.
	Do(ctx context.Context, job *dispatch.Job) (*dispatch.Result, error)
	// Metrics snapshots the dispatch counters for /metrics.
	Metrics() dispatch.Metrics
}

// Server is the HTTP edge: it answers repeat jobs from the result
// cache and hands every other job to its Dispatcher.
type Server struct {
	cfg   Config
	disp  Dispatcher
	met   metrics
	front frontIndex // body bytes → cache key, consulted ahead of decode
	mux   *http.ServeMux

	// The in-process backend; with a configured Dispatcher local is nil
	// and exec idle (its pool series read zero).
	exec  *dispatch.Executor
	local *dispatch.Coordinator // over exec; Shutdown closes it

	nextID atomic.Uint64 // lock-free: ID allocation must not contend with admission

	admitMu sync.Mutex     // guards drain + jobs.Add vs Shutdown's jobs.Wait
	drain   bool           // Shutdown has begun: admit nothing
	jobs    sync.WaitGroup // Dispatcher.Do calls in flight

	// stop is canceled with cause dispatch.ErrPreempted when the
	// shutdown grace expires; every job's context inherits it.
	stop    context.Context
	preempt context.CancelCauseFunc
}

// New builds a Server (and, without a Dispatcher, its in-process
// backend). Stop it with Shutdown.
func New(cfg Config) *Server {
	cfg.normalize()
	s := &Server{cfg: cfg, disp: cfg.Dispatcher}
	s.front.keys = make(map[[sha256.Size]byte]string)
	s.exec = dispatch.NewExecutor()
	if s.disp == nil {
		s.local = dispatch.NewLocal(s.exec, cfg.Workers, cfg.QueueDepth)
		s.disp = s.local
	}
	s.stop, s.preempt = context.WithCancelCause(context.Background())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleJobs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler (POST /jobs, GET /healthz,
// GET /metrics).
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown gracefully stops the server: admission closes immediately
// (new jobs get 503), jobs in flight drain to completion, and when ctx
// expires first they are preempted — an in-process job pauses at its
// next slice boundary and is checkpointed to Config.CheckpointDir, a
// queued or remote one is abandoned — and answered 503 "preempted".
// Shutdown returns once every admitted job has been answered. A
// configured Dispatcher is the caller's to close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admitMu.Lock()
	if s.drain {
		s.admitMu.Unlock()
		return errors.New("serve: already shut down")
	}
	s.drain = true
	s.admitMu.Unlock()

	graceOver := context.AfterFunc(ctx, func() { s.preempt(dispatch.ErrPreempted) })
	s.jobs.Wait()
	graceOver()
	s.preempt(dispatch.ErrPreempted) // nothing is left to preempt: release stop
	if s.local != nil {
		return s.local.Close()
	}
	return nil
}

// admit opens one job's slot in Shutdown's wait set, refusing once
// Shutdown has begun. The caller owes a jobs.Done.
func (s *Server) admit() bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if !s.drain {
		s.jobs.Add(1)
	}
	return !s.drain
}

// draining reports whether Shutdown has begun.
func (s *Server) draining() bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	return s.drain
}

// cachedHead and cachedTail are the two ends of every payload
// storeResult writes: JobResult marshals ID and Status first, and its
// host-side fields, zeroed before storing, last — Checkpoint, Worker and
// Cached omitted, the other three always present.
const (
	cachedHead = `{"id":"","status":"ok",`
	cachedTail = `"poolWarm":false,"queueMs":0,"runMs":0}`
)

// lookupCached returns the payload stored under key if it is in
// storeResult's envelope: cachedHead, a middle that is empty or ends in a
// comma, cachedTail. Other bytes — `{}`, `null`, a truncated record, a
// run that did not finish — are dropped. The middle's comma keeps the
// splice in answerCached outside any string: after a middle ending `"\`,
// the spliced `"cached"` would read as part of the key `\"cached`.
func (s *Server) lookupCached(key string) ([]byte, bool) {
	payload, ok := s.cfg.Cache.Get(key)
	if !ok {
		return nil, false
	}
	n := len(payload) - len(cachedTail)
	if n >= len(cachedHead) && payload[n-1] == ',' &&
		string(payload[:len(cachedHead)]) == cachedHead && string(payload[n:]) == cachedTail {
		return payload, true
	}
	s.cfg.Cache.Remove(key)
	return nil, false
}

// answerCached writes the cached result of key as the response, if
// there is one. The stored payload carries only the deterministic fields,
// so a hit is the cold run's deterministic result byte for byte: it is
// answered as stored, with a fresh ID and "cached": true spliced in and
// the indentation every response has. The indenting pass also checks the
// spliced bytes are one JSON value; a payload that fails it is dropped
// and answered as a miss, like any other corrupt entry.
func (s *Server) answerCached(w http.ResponseWriter, key string) bool {
	payload, ok := s.lookupCached(key)
	if ok {
		id := s.jobID()
		middle := payload[len(cachedHead) : len(payload)-len(cachedTail)]
		hit := make([]byte, 0, len(payload)+len(id)+len(`"cached":true,`))
		hit = append(hit, `{"id":"`...)
		hit = append(hit, id...)
		hit = append(hit, `","status":"ok",`...)
		hit = append(hit, middle...)
		hit = append(hit, `"cached":true,`...)
		hit = append(hit, cachedTail...)
		var body bytes.Buffer
		if json.Indent(&body, hit, "", "  ") == nil {
			body.WriteByte('\n')
			s.met.cacheHits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			// A write error means the client is gone; there is nobody to tell.
			_, _ = w.Write(body.Bytes())
			return true
		}
		s.cfg.Cache.Remove(key)
	}
	s.met.cacheMisses.Add(1)
	return false
}

// storeResult saves a cleanly finished job's deterministic payload
// under its content address. Host-side fields are zeroed first so
// every future hit returns exactly the deterministic fields of this
// run. Concurrent identical jobs race benignly: they store identical
// bytes and the later record wins.
func (s *Server) storeResult(cacheKey string, res *JobResult) {
	if s.cfg.Cache == nil || cacheKey == "" {
		return
	}
	payload := *res
	payload.ID, payload.Checkpoint, payload.Worker = "", "", ""
	payload.Cached, payload.PoolWarm = false, false
	payload.QueueMs, payload.RunMs = 0, 0
	b, err := json.Marshal(&payload)
	if err != nil {
		return
	}
	// A failed store is a full cache miss next time — worth no more
	// than the re-simulation it costs.
	_ = s.cfg.Cache.Put(cacheKey, b)
}

// saveCheckpoint writes a preempted job's machine state to
// CheckpointDir and completes the response's account of where it went.
// The machine was paused at a cycle boundary, so the checkpoint resumes
// bit-exactly. A nil state (a remote job, or a failed serialization
// that Error already reports) leaves the response as it is.
func (s *Server) saveCheckpoint(out *JobResult, state []byte) {
	if state == nil {
		return
	}
	if s.cfg.CheckpointDir == "" {
		out.Error += "; state discarded (no checkpoint dir)"
		return
	}
	path := filepath.Join(s.cfg.CheckpointDir, out.ID+".ckpt")
	if err := os.WriteFile(path, state, 0o644); err != nil {
		out.Error += fmt.Sprintf("; checkpoint failed: %v", err)
		return
	}
	out.Checkpoint = path
	out.Error += "; resume with lbp-run -resume " + path
}

// handleJobs answers one job with its JobResult: from the result cache
// for a repeat job, without consuming a queue slot or simulating a
// cycle; through the dispatcher otherwise.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	req, front, key, ok := s.readJob(w, r)
	if !ok {
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	maxCycles := req.MaxCycles
	if maxCycles == 0 {
		maxCycles = s.cfg.defaultMaxCycles()
	}
	if maxCycles > s.cfg.MaxCyclesCap {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("maxCycles %d exceeds the server cap %d", maxCycles, s.cfg.MaxCyclesCap))
		return
	}
	deadline := s.cfg.Deadline
	if d := time.Duration(req.DeadlineMs) * time.Millisecond; d > 0 && d < deadline {
		deadline = d
	}
	prog, err := req.compile()
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("program: %w", err))
		return
	}
	job := &dispatch.Job{
		Key:        key,
		Program:    prog,
		Cores:      req.Cores,
		BankBytes:  req.BankBytes,
		MaxCycles:  maxCycles,
		Digest:     req.Digest,
		Ring:       req.Ring,
		Profile:    req.Profile,
		DeadlineMs: deadline.Milliseconds(),
	}
	if s.cfg.Cache != nil && key == "" {
		spec, _ := job.Spec() // cannot fail: the program is already compiled
		if job.Key, err = sim.CacheKey(spec); err == nil {
			s.front.put(front, job.Key)
			if s.answerCached(w, job.Key) {
				return
			}
		}
	}
	if !s.admit() {
		writeError(w, http.StatusServiceUnavailable, errors.New("server is shutting down"))
		return
	}
	defer s.jobs.Done()
	job.ID = s.jobID()
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	defer context.AfterFunc(s.stop, func() { cancel(dispatch.ErrPreempted) })()
	res, err := s.disp.Do(ctx, job)
	s.answer(w, r, job, res, err)
}

// readJob reads the request body into a pooled buffer and decodes the
// job from it; the buffer goes back to the pool before the job runs
// (the decoded request holds no byte of it). front is the body's SHA-256
// and key the cache key the memo remembers for it, when there is a
// cache. A request readJob answered itself — a memo hit in the cache, a
// body too large or not a job — returns ok false.
func (s *Server) readJob(w http.ResponseWriter, r *http.Request) (req JobRequest, front [sha256.Size]byte, key string, ok bool) {
	buf := bodyPool.Get().(*[]byte)
	defer putBody(buf)
	// All of it, not just the JSON value: the cap bounds every byte.
	body, err := readBody(*buf, http.MaxBytesReader(w, r.Body, maxBodyBytes))
	*buf = body
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return req, front, "", false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return req, front, "", false
	}
	// Body bytes this process has keyed before have their cache key in
	// the memo: a repeat is answered without decoding or compiling, and
	// one whose entry is gone runs cold under the remembered key.
	if s.cfg.Cache != nil {
		front = sha256.Sum256(body)
		if key = s.front.get(front); key != "" {
			s.met.frontHits.Add(1)
			if s.answerCached(w, key) {
				return req, front, key, false
			}
		}
	}
	// The job is the body's first JSON value. Unmarshal decodes a body that
	// is only that, in place; anything else goes to a Decoder (which would
	// copy the body) to skip what follows the value or to word the error.
	if json.Unmarshal(body, &req) != nil {
		req = JobRequest{}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return req, front, key, false
		}
	}
	return req, front, key, true
}

// maxPooledBody bounds the body buffers bodyPool keeps: an ordinary
// job's buffer is reused, an outsized one goes to the collector.
const maxPooledBody = 1 << 20

// bodyPool holds request body buffers between requests (readJob).
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

func putBody(buf *[]byte) {
	if cap(*buf) > maxPooledBody {
		return
	}
	*buf = (*buf)[:0]
	bodyPool.Put(buf)
}

// readBody appends r, read to its end, to b and returns the result. A
// body that fits b's capacity costs nothing; past it the buffer doubles
// as it fills, so a large body costs about twice its size in
// allocations (io.ReadAll's 1.25× steps cost five times), and nothing is
// sized from what a client claims.
func readBody(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(make([]byte, 0, max(2*cap(b), 512)), b...)
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// answer maps what the dispatcher made of a job onto the HTTP status
// table and the response body, and counts it. A refusal is not an
// accepted job and not a failed one — 429 counts as rejected, 503
// (closed) as nothing — so accepted is only known here, once Do has
// not refused.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, job *dispatch.Job, res *dispatch.Result, err error) {
	out := &JobResult{ID: job.ID}
	if err != nil {
		out.Error = err.Error()
	} else {
		out.Status, out.Error = res.Status, res.Error
		out.Worker, out.PoolWarm = res.Worker, res.PoolWarm
		out.QueueMs, out.RunMs = res.QueueMs, res.RunMs
	}
	var code int
	outcome, refused := &s.met.failed, false
	switch {
	case errors.Is(err, dispatch.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		code, out.Status = http.StatusTooManyRequests, StatusRejected
		outcome, refused = &s.met.rejected, true
	case errors.Is(err, dispatch.ErrClosed):
		code, out.Status = http.StatusServiceUnavailable, StatusRejected
		outcome, refused = nil, true
	case errors.Is(err, dispatch.ErrPreempted):
		// Preempted in a queue or on a remote backend: no machine state.
		code, out.Status = http.StatusServiceUnavailable, StatusPreempted
		outcome = &s.met.preempted
	case err != nil && r.Context().Err() != nil:
		code, out.Status = statusClientClosedRequest, StatusCanceled
	case err != nil:
		// Every attempt exhausted: the backends, not the job, failed.
		code, out.Status = http.StatusBadGateway, StatusError
	case res.Status == dispatch.StatusOK:
		code, outcome = http.StatusOK, &s.met.completed
		s.met.runNanos.Add(uint64(res.RunMs * 1e6))
		s.met.simCycles.Add(res.Cycles)
		if res.RunMs > 0 {
			s.met.lastJobCPS.Store(math.Float64bits(float64(res.Cycles) / (res.RunMs / 1e3)))
		}
		out.Halt, out.Cycles, out.Retired, out.IPC = res.Halt, res.Cycles, res.Retired, res.IPC
		out.Digest, out.Events, out.Tail = res.Digest, res.Events, res.Tail
		out.Mem, out.Perf = res.Mem, res.Perf
		s.storeResult(job.Key, out)
	case res.Status == dispatch.StatusPreempted:
		code, outcome = http.StatusServiceUnavailable, &s.met.preempted
		s.saveCheckpoint(out, res.Checkpoint)
	case res.Status == dispatch.StatusDeadline:
		code = http.StatusGatewayTimeout
	case res.Status == dispatch.StatusCanceled:
		code = statusClientClosedRequest
	default:
		// The machine faulted or ran out of cycle budget: the job's own
		// deterministic outcome. The service worked; the run did not.
		code = http.StatusUnprocessableEntity
	}
	if outcome != nil {
		outcome.Add(1)
	}
	if !refused {
		s.met.accepted.Add(1)
	}
	writeJSON(w, code, out)
}

// jobID hands out monotonically increasing job IDs.
func (s *Server) jobID() string { return fmt.Sprintf("job-%06d", s.nextID.Add(1)) }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var cs cache.Stats
	if s.cfg.Cache != nil {
		cs = s.cfg.Cache.Stats()
	}
	s.met.writePrometheus(w, s.exec, cs, s.disp.Metrics())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode error means the client is gone; there is nobody to tell.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, &JobResult{Status: StatusRejected, Error: err.Error()})
}
