package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/lbp"
	"repro/internal/sim"
)

// WorkerConfig has no fields: the slice and the pool bounds are
// constants.
//
// Deprecated: nothing reads it. It stays only because the frozen
// benchmark (bench/lbp-load/load.go) still passes one to NewWorker,
// and goes when that call does.
type WorkerConfig struct{}

// slice is the Advance granularity between cancellation checks and
// checkpoint streams, in simulated cycles. Results never depend on it,
// but a deadline, cancel or preemption overshoots by up to one slice:
// 16 Ki cycles of Figure 21's 64-core base matmul are ≈ 0.08 s of host
// time (2-CPU x86-64). A check is one channel poll and a typical job (a
// few thousand cycles) fits in one slice, so a smaller slice would buy
// nothing a client sees (DESIGN.md §8).
const slice = 1 << 14

// ErrPreempted is the context cancellation cause that asks for a
// preemption instead of a plain cancel (context.WithCancelCause): an
// in-process Executor pauses the job at its next slice boundary and
// answers StatusPreempted with the machine state; a job on a remote
// backend, or not yet started, resolves to ErrPreempted itself.
var ErrPreempted = errors.New("preempted by shutdown")

// Sentinel errors classifying why a run stopped early.
var (
	errCanceled = errors.New("job canceled by the caller")
	errDeadline = errors.New("attempt deadline elapsed")
	// errPanicked: the simulator panicked in the run — a simulator
	// defect this job's program reaches. It is the job's answer like a
	// machine fault (StatusError, never retried), so one bad job ends
	// neither the process nor, retried worker after worker, the fleet.
	errPanicked = errors.New("simulator panic")
)

// ExecutorMetrics is a snapshot of one executor's lifetime counters.
// The machine-accounting invariant every path must preserve:
//
//	checkedOut == poolReturned + poolDiscarded + machinesOut
//
// with machinesOut dropping to zero once no job is running — a warm
// machine is never leaked, whatever killed its job (cancel, deadline,
// fault, preemption, coordinator connection death mid-run).
type ExecutorMetrics struct {
	Completed uint64 // StatusOK results
	Canceled  uint64
	Deadline  uint64
	Errored   uint64 // machine fault or budget exceeded
	Preempted uint64
	Resumed   uint64 // jobs that started from a migrated checkpoint

	CheckedOut    uint64 // machines obtained (pool checkout or checkpoint restore)
	PoolReturned  uint64 // machines handed back to the warm pool
	PoolDiscarded uint64 // machines not pooled (restored from a checkpoint, or preempted)
	MachinesOut   int64  // machines currently held by running jobs

	CheckpointsStreamed uint64
}

// Executor runs jobs on a warm sim.Pool: checkout or resume, simulate
// under deadline and cancellation, fill the result, release the
// machine. It is the one implementation of "run one job" — a Worker
// serves it over rpc, a NewLocal coordinator calls it in process — and
// is safe for concurrent use.
type Executor struct {
	pool sim.Pool

	mu sync.Mutex
	m  ExecutorMetrics
}

// NewExecutor builds an executor with an empty warm pool.
func NewExecutor() *Executor { return &Executor{} }

// Metrics returns a snapshot of the executor counters.
func (e *Executor) Metrics() ExecutorMetrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m
}

// count updates the counters.
func (e *Executor) count(update func(*ExecutorMetrics)) {
	e.mu.Lock()
	update(&e.m)
	e.mu.Unlock()
}

// PoolStats exposes the warm-pool counters.
func (e *Executor) PoolStats() sim.PoolStats { return e.pool.Stats() }

// PoolIdle is the number of idle warm machines.
func (e *Executor) PoolIdle() int { return e.pool.Idle() }

// Run executes one job and blocks until it resolves. An error is a
// refusal: the job never ran. Otherwise every exit path — clean finish,
// fault, budget, a simulator panic, deadline, cancel, preemption, ctx
// dying with its connection — releases the machine through the same
// accounting.
//
// sink, when non-nil, receives a checkpoint every job.CheckpointEvery
// cycles and reports whether it was delivered; a nil sink serializes
// nothing while the job runs.
func (e *Executor) Run(ctx context.Context, job *Job, sink func(cycle uint64, state []byte) bool) (*Result, error) {
	// The machine: restored from a migrated checkpoint, or warm from
	// the pool.
	var sess *sim.Session
	var warm bool
	resumed := len(job.Checkpoint) > 0
	if resumed {
		var err error
		if sess, err = sim.Resume(job.Checkpoint, sim.ResumeSpec{MaxCycles: job.MaxCycles}); err != nil {
			return nil, refusal("restoring checkpoint", err)
		}
	} else {
		spec, err := job.Spec()
		if err != nil {
			return nil, err
		}
		if sess, warm, err = e.pool.GetWarm(spec); err != nil {
			return nil, refusal("building machine", err)
		}
	}
	e.count(func(m *ExecutorMetrics) {
		m.CheckedOut++
		m.MachinesOut++
		if resumed {
			m.Resumed++
		}
	})

	runCtx := ctx
	if job.DeadlineMs > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, time.Duration(job.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	lastStream := sess.Machine().Cycle()
	res, err := runRecovered(sess, func(cycle uint64) error {
		select {
		case <-runCtx.Done():
			switch {
			case ctx.Err() == nil:
				return errDeadline
			case errors.Is(context.Cause(ctx), ErrPreempted):
				return ErrPreempted
			}
			return errCanceled
		default:
		}
		if sink != nil && job.CheckpointEvery > 0 && cycle-lastStream >= job.CheckpointEvery {
			lastStream = cycle
			// The machine is paused at a cycle boundary: serialization
			// is pure observation. A failed stream is only a lost
			// migration point, never a failed job.
			if cp, err := sess.Checkpoint(); err == nil && sink(cycle, cp) {
				e.count(func(m *ExecutorMetrics) { m.CheckpointsStreamed++ })
			}
		}
		return nil
	})

	// Any machine the pool handed out goes back to it — GetWarm resets
	// machines on checkout, so a deadline-stopped, canceled or faulted
	// machine is exactly as reusable as a cleanly finished one. Three
	// kinds cannot be pooled and count as discarded instead: one
	// restored from a checkpoint (its Spec has no program to reset to),
	// one preempted (the process is exiting) and one the simulator
	// panicked in (its state is whatever the panic left).
	out := &Result{PoolWarm: warm, Resumed: resumed}
	poolable, outcome := !resumed, &e.m.Errored
	cycle := sess.Machine().Cycle()
	switch {
	case err == nil:
		outcome = &e.m.Completed
		out.Status = StatusOK
		fillResult(out, sess, res, job.Ring)
	case errors.Is(err, ErrPreempted):
		outcome = &e.m.Preempted
		out.Status = StatusPreempted
		out.Error = fmt.Sprintf("preempted by shutdown at cycle %d", cycle)
		if out.Checkpoint, err = sess.Checkpoint(); err != nil {
			out.Error += fmt.Sprintf("; checkpoint failed: %v", err)
		}
		poolable = false
	case errors.Is(err, errCanceled):
		outcome = &e.m.Canceled
		out.Status = StatusCanceled
		out.Error = fmt.Sprintf("canceled at cycle %d", cycle)
	case errors.Is(err, errDeadline):
		outcome = &e.m.Deadline
		out.Status = StatusDeadline
		out.Error = fmt.Sprintf("deadline %dms elapsed at cycle %d", job.DeadlineMs, cycle)
	default:
		// The machine itself stopped: a deterministic fault or the
		// simulated-cycle budget. The executor is healthy; the run is not.
		out.Status = StatusError
		out.Error = err.Error()
		poolable = poolable && !errors.Is(err, errPanicked)
	}
	if poolable {
		e.pool.Put(sess)
	}
	e.count(func(m *ExecutorMetrics) {
		*outcome++
		if poolable {
			m.PoolReturned++
		} else {
			m.PoolDiscarded++
		}
		m.MachinesOut--
	})
	return out, nil
}

// runRecovered runs sess in slices under check, turning a panic in the
// simulator into an error that wraps errPanicked.
func runRecovered(sess *sim.Session, check func(cycle uint64) error) (res *lbp.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", errPanicked, r)
		}
	}()
	return sess.RunSliced(slice, check)
}

// fillResult copies the deterministic outcome of a finished run.
func fillResult(out *Result, sess *sim.Session, res *lbp.Result, ring int) {
	out.Halt = res.Halt
	out.Cycles = res.Stats.Cycles
	out.Retired = res.Stats.Retired
	out.IPC = res.Stats.IPC()
	memStats := res.Mem
	out.Mem = &memStats
	if rec := sess.Recorder(); rec != nil {
		out.Digest = rec.Digest()
		out.Events = rec.Count()
		for _, e := range rec.Last(ring) {
			out.Tail = append(out.Tail, e.String())
		}
	}
	out.Perf = sess.PerfSnapshot()
}
