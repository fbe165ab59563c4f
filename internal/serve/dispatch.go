package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/asm"
	"repro/internal/dispatch"
)

// Dispatcher is the distributed back end the server shards jobs to
// when Config.Dispatcher is set: in production a *dispatch.Coordinator
// over -backends workers, in tests anything that answers Do.
//
// The HTTP surface is identical either way — same request schema, same
// response schema, same status codes, same cache behavior — because
// the deterministic fields of a result do not depend on which machine
// produced them.
type Dispatcher interface {
	// Do runs one job somewhere on the fleet and blocks until it
	// resolves. See dispatch.Coordinator.Do for the error contract.
	Do(ctx context.Context, job *dispatch.Job) (*dispatch.Result, error)
	// Metrics snapshots the dispatch counters for /metrics.
	Metrics() dispatch.Metrics
}

// runRemote answers one job through the dispatcher instead of the
// local worker pool. The program was already compiled (and the result
// cache already missed), so the job ships as a serialized image:
// workers decode it straight into a machine without needing the
// compiler front end, and every backend sees byte-identical input.
func (s *Server) runRemote(w http.ResponseWriter, r *http.Request, req *JobRequest,
	prog *asm.Program, cacheKey string, maxCycles uint64, deadline time.Duration) {
	var img bytes.Buffer
	if err := prog.WriteImage(&img); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("serializing program: %w", err))
		return
	}
	id := fmt.Sprintf("job-%06d", s.jobID())
	job := &dispatch.Job{
		ID:         id,
		Key:        cacheKey,
		Image:      img.Bytes(),
		Cores:      req.Cores,
		BankBytes:  req.BankBytes,
		MaxCycles:  maxCycles,
		Digest:     req.Digest,
		Ring:       req.Ring,
		Profile:    req.Profile,
		DeadlineMs: deadline.Milliseconds(),
	}
	s.met.inflight.Add(1)
	start := time.Now()
	res, err := s.cfg.Dispatcher.Do(r.Context(), job)
	elapsed := time.Since(start)
	s.met.inflight.Add(-1)

	// The counters follow the local path (admit): a refusal is not an
	// accepted job and not a failed one — 429 counts as rejected, 503 as
	// nothing — so accepted is only known once Do has not refused.
	refused := errors.Is(err, dispatch.ErrQueueFull) || errors.Is(err, dispatch.ErrClosed)
	if !refused {
		s.met.accepted.Add(1)
	}
	out := &JobResult{ID: id, RunMs: float64(elapsed) / float64(time.Millisecond)}
	if err != nil {
		if !refused {
			s.met.failed.Add(1)
		}
		out.Error = err.Error()
		switch {
		case errors.Is(err, dispatch.ErrQueueFull):
			s.met.rejected.Add(1)
			out.Status = StatusRejected
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, out)
		case errors.Is(err, dispatch.ErrClosed):
			out.Status = StatusRejected
			writeJSON(w, http.StatusServiceUnavailable, out)
		case r.Context().Err() != nil:
			out.Status = StatusCanceled
			writeJSON(w, statusClientClosedRequest, out)
		default:
			// Every attempt exhausted: the fleet, not the job, failed.
			out.Status = StatusError
			writeJSON(w, http.StatusBadGateway, out)
		}
		return
	}

	out.Worker = res.Worker
	out.PoolWarm = res.PoolWarm
	out.Error = res.Error
	out.Status = res.Status
	switch res.Status {
	case dispatch.StatusOK:
		s.met.completed.Add(1)
		s.met.runNanos.Add(uint64(elapsed))
		s.met.simCycles.Add(res.Cycles)
		s.met.recordJobThroughput(res.Cycles, elapsed.Seconds())
		out.Halt = res.Halt
		out.Cycles = res.Cycles
		out.Retired = res.Retired
		out.IPC = res.IPC
		out.Digest = res.Digest
		out.Events = res.Events
		out.Tail = res.Tail
		out.Mem = res.Mem
		out.Perf = res.Perf
		s.storeRemote(cacheKey, out)
		writeJSON(w, http.StatusOK, out)
	case dispatch.StatusDeadline:
		s.met.failed.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, out)
	case dispatch.StatusCanceled:
		s.met.failed.Add(1)
		writeJSON(w, statusClientClosedRequest, out)
	default:
		// The machine faulted or ran out of cycle budget — the job's own
		// deterministic outcome, same as the local path's 422.
		s.met.failed.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, out)
	}
}

// storeRemote caches a remotely computed result under its content
// address, zeroing the host-side fields exactly like the local path so
// a future hit is byte-identical in every deterministic field.
func (s *Server) storeRemote(cacheKey string, res *JobResult) {
	if s.cfg.Cache == nil || cacheKey == "" {
		return
	}
	j := &job{cacheKey: cacheKey, res: *res}
	s.storeResult(j)
}
