package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
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

	// QueueDepth sizes the queue of admitted jobs no backend has taken
	// yet, per backend: it holds QueueDepth × len(Backends) in all,
	// beyond which Do returns ErrQueueFull (0 = 64).
	QueueDepth int

	// Attempts bounds how many times a job may be charged a lost attempt
	// before it fails (0 = one per backend, minimum 2). Only transport
	// deaths and refused migration checkpoints consume attempts;
	// job-level outcomes are terminal.
	Attempts int

	// RetryBackoff is the pause before a backend whose dial failed
	// dials again, doubling per failure up to maxBackoff (0 = 50ms).
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

// maxBackoff caps the pause between re-dials: a dead backend must not
// turn into a tight redial loop, and a restarted one must not stay out
// for long.
const maxBackoff = 2 * time.Second

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
	Retries     uint64 // attempts lost to a dead link and tried again
	Migrations  uint64 // retries that resumed from a streamed checkpoint
	Checkpoints uint64 // streamed checkpoints received
	BackendsUp  int    // backends reachable right now (an in-process one always is)
	Queued      int    // jobs admitted and waiting in the queue right now
	Running     int    // jobs inside a backend call right now

	// Deprecated: Steals is always 0 — there is one queue and nothing to
	// steal from. It survives because the frozen benchmark
	// (bench/lbp-load/trace.go) reads it; the next benchmark PR drops
	// the probe and this field together.
	Steals uint64
}

// outcome is what a pending job resolves to.
type outcome struct {
	res *Result
	err error
}

// pending is one admitted job waiting for, or undergoing, dispatch.
type pending struct {
	job  *Job
	ctx  context.Context
	done chan outcome // buffered(1): delivery never blocks a dispatcher

	// Owned by whoever holds the job — the queue (under Coordinator.mu)
	// or the one dispatcher that popped it.
	enqueued time.Time     // when it last entered the queue
	queued   time.Duration // total wait in the queue
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

// backend is one link to an Executor and the PerBackend dispatchers
// that feed it from the coordinator's queue.
type backend struct {
	addr string // Result.Worker; "" for the in-process backend
	link

	// Guarded by Coordinator.mu. While the link is not up, one of the
	// backend's dispatchers at a time establishes it (Coordinator.connect)
	// and the others wait, so a dial that hangs or fails holds up no job.
	connecting bool
	backoff    time.Duration // pause before the next dial; 0 = the last one did not fail
}

// Coordinator queues jobs and runs them on its backends: one bounded
// FIFO from which every dispatcher of a connected backend takes the
// head, re-queueing at the front and checkpoint migration when a link
// dies. Any backend serves any job — results are a pure function of the
// job, and a worker's warm machines are keyed by geometry, not program.
// It is safe for concurrent use; create with New or NewLocal, stop with
// Close.
type Coordinator struct {
	cfg   Config
	backs []*backend
	stop  chan struct{} // closed by Close: ends a backoff pause early

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*pending          // admitted jobs no dispatcher holds, oldest first
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
		stop:    make(chan struct{}),
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
	for _, p := range c.queue {
		p.deliver(outcome{err: ErrClosed})
	}
	c.queue = nil
	close(c.stop)
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
	m.Queued = len(c.queue)
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
// outcome, never retried), ErrQueueFull when the queue is at bound,
// ErrClosed after Close, or a dispatch failure once every attempt is
// exhausted. Jobs start in admission order on whichever connected
// backend has a free dispatcher. When ctx ends first, a job still queued
// resolves at once to ctx's cause; a running one resolves as its
// backend does — an in-process Executor stops at the next slice
// boundary and still answers (StatusCanceled, or StatusPreempted with
// the machine state), a remote call is abandoned with ctx's cause.
func (c *Coordinator) Do(ctx context.Context, job *Job) (*Result, error) {
	if job.CheckpointEvery == 0 && c.cfg.CheckpointEvery > 0 {
		job.CheckpointEvery = uint64(c.cfg.CheckpointEvery)
	}
	p := &pending{
		job:      job,
		ctx:      ctx,
		done:     make(chan outcome, 1),
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
	if len(c.queue) >= c.cfg.QueueDepth*len(c.backs) {
		c.mu.Unlock()
		return nil, ErrQueueFull
	}
	c.queue = append(c.queue, p)
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

// unqueue removes p from the queue, freeing its slot, and reports
// whether it was queued at all.
func (c *Coordinator) unqueue(p *pending) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, q := range c.queue {
		if q == p {
			c.queue = slices.Delete(c.queue, i, i+1)
			return true
		}
	}
	return false
}

// pop takes the head of the queue, closing its queue-wait interval.
// Callers hold c.mu.
func (c *Coordinator) pop() *pending {
	p := c.queue[0]
	c.queue = c.queue[1:]
	p.queued += time.Since(p.enqueued)
	return p
}

// next blocks until backend b is connected and the queue has a job for
// it — the head: jobs start in admission order — or the coordinator
// closes (nil). A backend that is not connected takes no work: a job
// handed to it would only wait out a dial another backend can spare it.
func (c *Coordinator) next(b *backend) *pending {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.closed {
		switch {
		case b.up():
			if len(c.queue) > 0 {
				return c.pop()
			}
		case !b.connecting && (b.backoff > 0 || len(c.queue) > 0):
			c.connect(b)
			continue
		}
		c.cond.Wait()
	}
	return nil
}

// connect dials backend b from the calling dispatcher: at once when
// there is work and b's last dial did not fail, after b's backoff
// otherwise — a dead backend re-dials on its own clock, queue or no
// queue, and rejoins on the first success. A failed dial costs no job
// anything while another backend can still run the queue; once every
// backend is in backoff it is an attempt lost by every queued job, so a
// dead fleet fails its jobs after Attempts instead of holding them.
// Called with c.mu held; releases it around the pause and the dial.
func (c *Coordinator) connect(b *backend) {
	b.connecting = true
	pause := time.NewTimer(b.backoff)
	c.mu.Unlock()
	var err error
	select {
	case <-pause.C:
		err = b.link.connect()
	case <-c.stop:
		pause.Stop()
	}
	c.mu.Lock()
	b.connecting = false
	switch {
	case c.closed:
		return
	case err == nil:
		b.backoff = 0
		c.cond.Broadcast() // b's other dispatchers may take work now
		return
	}
	b.backoff = min(max(2*b.backoff, c.cfg.RetryBackoff), maxBackoff)
	for _, o := range c.backs {
		if o.backoff == 0 {
			return // o is connected, or will dial for the head itself
		}
	}
	cause := fmt.Errorf("dialing %s: %w", b.addr, err)
	keep := c.queue[:0]
	for _, p := range c.queue {
		p.attempts++
		if !c.exhausted(p, cause) {
			c.m.Retries++
			keep = append(keep, p)
		}
	}
	clear(c.queue[len(keep):])
	c.queue = keep
}

// exhausted fails p if it has used up its attempts, the last one lost
// to cause, and reports whether it did.
func (c *Coordinator) exhausted(p *pending, cause error) bool {
	if p.attempts < c.cfg.Attempts {
		return false
	}
	p.deliver(outcome{err: fmt.Errorf("dispatch: job %s failed after %d attempts: %w",
		p.job.ID, p.attempts, cause)})
	return true
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
// loop, so it only stores bytes: a copy of state, whose buffer the read
// loop reuses for its next frame.
func (c *Coordinator) handleNote(method string, params json.RawMessage, state []byte) {
	if method != MethodCheckpoint {
		return
	}
	var note CheckpointNote
	if err := json.Unmarshal(params, &note); err != nil {
		return
	}
	note.State = bytes.Clone(state)
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.pending[note.ID]; p != nil {
		c.m.Checkpoints++
		if note.Cycle > p.ckptAt || p.ckpt == nil {
			p.ckpt, p.ckptAt = note.State, note.Cycle
		}
	}
}

// runOn runs one attempt of p on backend b and resolves or re-queues it.
func (c *Coordinator) runOn(b *backend, p *pending) {
	p.attempts++
	job := *p.job
	c.mu.Lock()
	c.m.Running++
	ckpt := p.ckpt
	c.mu.Unlock()
	if ckpt != nil {
		// Migration: resume from the freshest streamed checkpoint
		// instead of restarting at cycle zero. Determinism makes the
		// spliced run bit-identical to an uninterrupted one.
		job.Checkpoint = ckpt
	}

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
	case isRefusal(err) && ckpt == nil:
		// The executor refused the job (bad image, bad geometry).
		// Terminal: another backend would refuse identically.
		p.deliver(outcome{err: err})
	default:
		// The link died mid-job, or the executor refused the streamed
		// checkpoint the attempt carried (another build's format, too
		// large a frame): an attempt lost either way. Whichever backend
		// is free next takes the job, ahead of everything admitted after
		// it — from its freshest checkpoint, or, that checkpoint being
		// what was refused, from cycle zero, which is always correct.
		c.mu.Lock()
		if isRefusal(err) {
			p.ckpt, p.ckptAt = nil, 0
		}
		c.requeue(p, err)
		c.mu.Unlock()
	}
}

// requeue puts p, whose latest attempt was lost, back at the front of
// the queue, or fails it once its attempts are exhausted.
// Callers hold c.mu.
func (c *Coordinator) requeue(p *pending, cause error) {
	switch {
	case c.exhausted(p, cause):
	case c.closed:
		p.deliver(outcome{err: ErrClosed})
	case p.ctx.Err() != nil:
		// Do found p in no queue and is waiting on this delivery.
		p.deliver(outcome{err: context.Cause(p.ctx)})
	default:
		c.m.Retries++
		p.enqueued = time.Now()
		c.queue = slices.Insert(c.queue, 0, p)
		c.cond.Broadcast()
	}
}
