package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Config parameterizes a Coordinator. The zero value of every field
// but Backends selects a sensible default.
type Config struct {
	// Backends are the worker addresses (host:port). Required.
	Backends []string

	// PerBackend is the number of jobs dispatched concurrently to each
	// backend (0 = 4). Multiplexed over one connection per backend.
	PerBackend int

	// QueueDepth bounds each backend's pending (admitted, not yet
	// dispatched) queue; overflow returns ErrQueueFull (0 = 64).
	QueueDepth int

	// StealDepth is the minimum depth an affine queue must reach
	// before an idle backend steals from it (0 = 2). Stealing trades
	// warm-pool affinity for latency; it never affects results.
	StealDepth int

	// Attempts bounds how many backends a job may be dispatched to
	// before it fails (0 = one per backend, minimum 2). Only transport
	// deaths consume attempts; job-level outcomes are terminal.
	Attempts int

	// RetryBackoff is the pause before re-dispatching a job whose
	// backend died, doubling per attempt (0 = 50ms).
	RetryBackoff time.Duration

	// CheckpointEvery asks workers to stream a migration checkpoint
	// every n simulated cycles (0 = 4M; negative = never). A job killed
	// mid-run resumes from its last streamed checkpoint on another
	// backend instead of restarting from cycle zero.
	CheckpointEvery int64

	// DialTimeout bounds one connection attempt (0 = 2s).
	DialTimeout time.Duration
}

func (c *Config) normalize() {
	if c.PerBackend <= 0 {
		c.PerBackend = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.StealDepth <= 0 {
		c.StealDepth = 2
	}
	if c.Attempts <= 0 {
		c.Attempts = max(len(c.Backends), 2)
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 4 << 20
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
}

// Admission and lifecycle errors.
var (
	ErrQueueFull = errors.New("dispatch: backend queue is full")
	ErrClosed    = errors.New("dispatch: coordinator closed")
)

// Metrics is a snapshot of the coordinator's lifetime counters.
type Metrics struct {
	Dispatched  uint64 // jobs admitted
	Completed   uint64 // jobs answered with a Result
	Failed      uint64 // jobs that exhausted their attempts (or died with the coordinator)
	Retries     uint64 // re-dispatches after a backend transport death
	Migrations  uint64 // retries that resumed from a streamed checkpoint
	Steals      uint64 // jobs run by a non-affine backend to balance load
	Checkpoints uint64 // streamed checkpoints received
	BackendsUp  int    // backends reachable right now (an in-process one always is)
	Queued      int    // jobs admitted and waiting in a backend queue right now
	Running     int    // jobs inside a backend call right now
}

// outcome is what a pending job resolves to.
type outcome struct {
	res *Result
	err error
}

// pending is one admitted job waiting for, or undergoing, dispatch.
type pending struct {
	job   *Job
	ctx   context.Context
	done  chan outcome // buffered(1): delivery never blocks a dispatcher
	order []int        // ring walk: order[0] is affine, the rest failover

	// Owned by whoever holds the job — the queue (under Coordinator.mu)
	// or the one dispatcher that popped it.
	enqueued time.Time     // when it last entered a queue
	queued   time.Duration // total wait in queues
	ran      time.Duration // total time inside backend calls
	attempts int           // dispatch attempts consumed
	image    []byte        // job.Program serialized for the wire, once

	// Guarded by Coordinator.mu: written from connection read loops.
	ckpt   []byte // latest streamed checkpoint
	ckptAt uint64 // its cycle
}

// deliver resolves the job exactly once.
func (p *pending) deliver(out outcome) {
	if out.res != nil {
		out.res.QueueMs = float64(p.queued) / float64(time.Millisecond)
		out.res.RunMs = float64(p.ran) / float64(time.Millisecond)
	}
	select {
	case p.done <- out:
	default:
	}
}

// backend is one bounded queue of jobs and the link that runs them.
type backend struct {
	addr  string     // Result.Worker; "" for the in-process backend
	queue []*pending // guarded by Coordinator.mu
	link
}

// Coordinator queues jobs and runs them on its backends: digest-affine
// routing, work stealing, retry-with-backoff and checkpoint migration
// across several, a plain bounded queue in front of one. It is safe for
// concurrent use; create with New or NewLocal, stop with Close.
type Coordinator struct {
	cfg   Config
	ring  ring
	backs []*backend

	mu      sync.Mutex
	cond    *sync.Cond
	pending map[string]*pending // running or queued, by job ID
	closed  bool

	m Metrics // the lifetime counters and Running

	wg sync.WaitGroup
}

// New builds a coordinator over remote Worker backends and starts its
// dispatchers. No connection is attempted until the first job.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("dispatch: at least one backend is required")
	}
	seen := make(map[string]bool, len(cfg.Backends))
	for _, a := range cfg.Backends {
		if a == "" {
			return nil, errors.New("dispatch: empty backend address")
		}
		if seen[a] {
			return nil, fmt.Errorf("dispatch: duplicate backend %q", a)
		}
		seen[a] = true
	}
	return start(cfg, func(c *Coordinator, addr string) link {
		dial := func() (net.Conn, error) { return net.DialTimeout("tcp", addr, c.cfg.DialTimeout) }
		return &remote{addr: addr, dial: dial, onNote: c.handleNote}
	}), nil
}

// NewLocal builds a coordinator over one in-process backend: up to
// workers jobs run concurrently on exec and queueDepth more wait.
// Nothing is serialized — jobs run from Job.Program and no checkpoint
// is taken unless a job is preempted (ErrPreempted).
func NewLocal(exec *Executor, workers, queueDepth int) *Coordinator {
	cfg := Config{Backends: []string{""}, PerBackend: workers, QueueDepth: queueDepth, CheckpointEvery: -1}
	return start(cfg, func(*Coordinator, string) link { return local{exec} })
}

// start builds the coordinator and its dispatchers, PerBackend per
// backend, each backend reaching its Executor through mklink's link.
func start(cfg Config, mklink func(*Coordinator, string) link) *Coordinator {
	cfg.normalize()
	c := &Coordinator{
		cfg:     cfg,
		ring:    buildRing(cfg.Backends),
		pending: make(map[string]*pending),
	}
	c.cond = sync.NewCond(&c.mu)
	for _, addr := range cfg.Backends {
		c.backs = append(c.backs, &backend{addr: addr, link: mklink(c, addr)})
	}
	for _, b := range c.backs {
		for w := 0; w < cfg.PerBackend; w++ {
			c.wg.Add(1)
			go c.dispatcher(b)
		}
	}
	return c
}

// Close stops the coordinator: queued jobs fail with ErrClosed,
// in-flight RPCs sever, dispatchers exit. An in-process run is not
// severed — its caller's context stops it — so Close waits for it.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for _, b := range c.backs {
		for _, p := range b.queue {
			p.deliver(outcome{err: ErrClosed})
		}
		b.queue = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, b := range c.backs {
		b.close()
	}
	c.wg.Wait()
	return nil
}

// Metrics returns a snapshot of the coordinator counters.
func (c *Coordinator) Metrics() Metrics {
	c.mu.Lock()
	m := c.m
	for _, b := range c.backs {
		m.Queued += len(b.queue)
	}
	c.mu.Unlock()
	for _, b := range c.backs {
		if b.up() {
			m.BackendsUp++
		}
	}
	return m
}

// Do runs one job on a backend and blocks until it resolves: a Result
// (whose Status may still be an error status — those are the job's own
// outcome, never retried), ErrQueueFull when the affine backend's
// queue is at bound, ErrClosed after Close, or a dispatch failure once
// every attempt is exhausted. When ctx ends first, a job still queued
// resolves at once to ctx's cause; a running one resolves as its
// backend does — an in-process Executor stops at the next slice
// boundary and still answers (StatusCanceled, or StatusPreempted with
// the machine state), a remote call is abandoned with ctx's cause.
func (c *Coordinator) Do(ctx context.Context, job *Job) (*Result, error) {
	if job.CheckpointEvery == 0 && c.cfg.CheckpointEvery > 0 {
		job.CheckpointEvery = uint64(c.cfg.CheckpointEvery)
	}
	// The job routes by its canonical content address when it has one,
	// by its ID otherwise (uniform spread; an uncacheable job has no
	// warm state worth chasing).
	key := job.Key
	if key == "" {
		key = job.ID
	}
	p := &pending{
		job:      job,
		ctx:      ctx,
		done:     make(chan outcome, 1),
		order:    c.ring.walk(key),
		enqueued: time.Now(),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := c.pending[job.ID]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("dispatch: duplicate job ID %q", job.ID)
	}
	affine := c.backs[p.order[0]]
	if len(affine.queue) >= c.cfg.QueueDepth {
		c.mu.Unlock()
		return nil, ErrQueueFull
	}
	affine.queue = append(affine.queue, p)
	c.pending[job.ID] = p
	c.m.Dispatched++
	c.cond.Broadcast()
	c.mu.Unlock()

	var out outcome
	select {
	case out = <-p.done:
	case <-ctx.Done():
		if c.unqueue(p) {
			out.err = context.Cause(ctx)
		} else {
			// A dispatcher holds it, and every path out of a dispatcher
			// delivers: promptly, since they all watch p.ctx.
			out = <-p.done
		}
	}
	c.mu.Lock()
	delete(c.pending, job.ID)
	if out.err != nil {
		c.m.Failed++
	} else {
		c.m.Completed++
	}
	c.mu.Unlock()
	return out.res, out.err
}

// unqueue removes p from whichever backend queue holds it, freeing its
// slot, and reports whether it was queued at all.
func (c *Coordinator) unqueue(p *pending) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.backs {
		for i, q := range b.queue {
			if q == p {
				b.queue = append(b.queue[:i], b.queue[i+1:]...)
				return true
			}
		}
	}
	return false
}

// pop takes the head of b's queue, closing its queue-wait interval.
// Callers hold c.mu.
func (b *backend) pop() *pending {
	p := b.queue[0]
	b.queue = b.queue[1:]
	p.queued += time.Since(p.enqueued)
	return p
}

// next blocks until a job is available for backend b — its own queue
// first, then a steal from the deepest queue at or beyond StealDepth —
// or the coordinator closes (nil). A backend last seen dead does not
// steal: it would burn the attempts of jobs that were failing over to a
// live backend. Its own queue still probes it, so it rejoins when the
// worker comes back.
func (c *Coordinator) next(b *backend) *pending {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil
		}
		if len(b.queue) > 0 {
			return b.pop()
		}
		var victim *backend
		if !b.isDown() {
			for _, o := range c.backs {
				if o != b && len(o.queue) >= c.cfg.StealDepth &&
					(victim == nil || len(o.queue) > len(victim.queue)) {
					victim = o
				}
			}
		}
		if victim != nil {
			c.m.Steals++
			return victim.pop()
		}
		c.cond.Wait()
	}
}

// dispatcher is one backend-bound worker loop.
func (c *Coordinator) dispatcher(b *backend) {
	defer c.wg.Done()
	for {
		p := c.next(b)
		if p == nil {
			return
		}
		if p.ctx.Err() != nil {
			p.deliver(outcome{err: context.Cause(p.ctx)})
			continue
		}
		c.runOn(b, p)
	}
}

// handleNote routes worker notifications. It runs on a connection read
// loop, so it only stores bytes.
func (c *Coordinator) handleNote(method string, params json.RawMessage) {
	if method != MethodCheckpoint {
		return
	}
	var note CheckpointNote
	if err := json.Unmarshal(params, &note); err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.pending[note.ID]; p != nil {
		c.m.Checkpoints++
		if note.Cycle > p.ckptAt || p.ckpt == nil {
			p.ckpt, p.ckptAt = note.State, note.Cycle
		}
	}
}

// runOn runs one attempt of p on backend b and resolves or re-routes it.
func (c *Coordinator) runOn(b *backend, p *pending) {
	p.attempts++
	job := *p.job
	c.mu.Lock()
	c.m.Running++
	if p.ckpt != nil {
		// Migration: resume from the freshest streamed checkpoint
		// instead of restarting at cycle zero. Determinism makes the
		// spliced run bit-identical to an uninterrupted one.
		job.Checkpoint = p.ckpt
	}
	c.mu.Unlock()

	start := time.Now()
	res, err := b.run(p, &job)
	p.ran += time.Since(start)
	c.mu.Lock()
	c.m.Running--
	if err == nil && job.Checkpoint != nil && p.attempts > 1 {
		c.m.Migrations++
	}
	c.mu.Unlock()
	switch {
	case err == nil:
		res.Worker = b.addr
		p.deliver(outcome{res: res})
	case p.ctx.Err() != nil:
		p.deliver(outcome{err: context.Cause(p.ctx)})
	case isRefusal(err):
		// The executor refused the job (bad image, restore failure).
		// Terminal: another backend would refuse identically.
		p.deliver(outcome{err: err})
	default:
		// The link died mid-job. Re-dispatch.
		c.retryElsewhere(p, err)
	}
}

// retryElsewhere re-queues p on its next failover backend after a
// backoff, or fails it once attempts are exhausted.
func (c *Coordinator) retryElsewhere(p *pending, cause error) {
	attempt := p.attempts
	if attempt >= c.cfg.Attempts {
		p.deliver(outcome{err: fmt.Errorf("dispatch: job %s failed after %d attempts: %w",
			p.job.ID, attempt, cause)})
		return
	}
	c.mu.Lock()
	c.m.Retries++
	c.mu.Unlock()
	// Exponential backoff, capped: a dead backend should not turn into
	// a tight redial loop, but a healthy failover must not idle long.
	pause := c.cfg.RetryBackoff << (attempt - 1)
	if max := 2 * time.Second; pause > max {
		pause = max
	}
	select {
	case <-time.After(pause):
	case <-p.ctx.Done():
	}
	target := c.backs[p.order[attempt%len(p.order)]]
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed:
		p.deliver(outcome{err: ErrClosed})
	case p.ctx.Err() != nil:
		// Do found p in no queue and is waiting on this delivery.
		p.deliver(outcome{err: context.Cause(p.ctx)})
	default:
		p.enqueued = time.Now()
		target.queue = append(target.queue, p)
		c.cond.Broadcast()
	}
}
