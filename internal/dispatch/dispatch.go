package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rpc"
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
		c.Attempts = len(c.Backends)
		if c.Attempts < 2 {
			c.Attempts = 2
		}
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
	BackendsUp  int    // backends with a live connection right now
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

	abandoned atomic.Bool // client gave up; skip instead of dispatching

	mu       sync.Mutex
	attempts int    // dispatch attempts consumed
	ckpt     []byte // latest streamed checkpoint
	ckptAt   uint64 // its cycle
}

// deliver resolves the job exactly once.
func (p *pending) deliver(out outcome) {
	select {
	case p.done <- out:
	default:
	}
}

// setCheckpoint records a newer streamed checkpoint.
func (p *pending) setCheckpoint(note *CheckpointNote) {
	p.mu.Lock()
	if note.Cycle > p.ckptAt || p.ckpt == nil {
		p.ckpt = note.State
		p.ckptAt = note.Cycle
	}
	p.mu.Unlock()
}

// backend is the coordinator's view of one worker.
type backend struct {
	idx  int
	addr string

	queue []*pending // guarded by Coordinator.mu

	mu   sync.Mutex
	conn *rpc.Conn // nil until dialed; dropped on transport death
	down bool      // the last dial failed or the last conn died; cleared by the next successful dial
}

// isDown reports whether the backend was last seen dead.
func (b *backend) isDown() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.down
}

// Coordinator shards jobs across worker backends with digest-affine
// routing, work stealing, retry-with-backoff and checkpoint migration.
// It is safe for concurrent use; create with New, stop with Close.
type Coordinator struct {
	cfg   Config
	ring  ring
	backs []*backend

	mu      sync.Mutex
	cond    *sync.Cond
	pending map[string]*pending // running or queued, by job ID
	closed  bool

	wg sync.WaitGroup

	dispatched  atomic.Uint64
	completed   atomic.Uint64
	failed      atomic.Uint64
	retries     atomic.Uint64
	migrations  atomic.Uint64
	steals      atomic.Uint64
	checkpoints atomic.Uint64
}

// New builds a coordinator over the configured backends and starts its
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
	cfg.normalize()
	c := &Coordinator{
		cfg:     cfg,
		ring:    buildRing(cfg.Backends),
		pending: make(map[string]*pending),
	}
	c.cond = sync.NewCond(&c.mu)
	for i, addr := range cfg.Backends {
		c.backs = append(c.backs, &backend{idx: i, addr: addr})
	}
	for _, b := range c.backs {
		for w := 0; w < cfg.PerBackend; w++ {
			c.wg.Add(1)
			go c.dispatcher(b)
		}
	}
	return c, nil
}

// Close stops the coordinator: queued jobs fail with ErrClosed,
// in-flight RPCs sever, dispatchers exit.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	var queued []*pending
	for _, b := range c.backs {
		queued = append(queued, b.queue...)
		b.queue = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, p := range queued {
		p.deliver(outcome{err: ErrClosed})
	}
	for _, b := range c.backs {
		b.mu.Lock()
		if b.conn != nil {
			b.conn.Close()
			b.conn = nil
		}
		b.mu.Unlock()
	}
	c.wg.Wait()
	return nil
}

// Metrics returns a snapshot of the coordinator counters.
func (c *Coordinator) Metrics() Metrics {
	up := 0
	for _, b := range c.backs {
		b.mu.Lock()
		if b.conn != nil && b.conn.Err() == nil {
			up++
		}
		b.mu.Unlock()
	}
	return Metrics{
		Dispatched:  c.dispatched.Load(),
		Completed:   c.completed.Load(),
		Failed:      c.failed.Load(),
		Retries:     c.retries.Load(),
		Migrations:  c.migrations.Load(),
		Steals:      c.steals.Load(),
		Checkpoints: c.checkpoints.Load(),
		BackendsUp:  up,
	}
}

// Backends returns the configured backend addresses (for /metrics).
func (c *Coordinator) Backends() []string { return c.cfg.Backends }

// affinityKey is what routes the job: its canonical content address
// when it has one, its ID otherwise (uniform spread; an uncacheable
// job has no warm state worth chasing).
func affinityKey(job *Job) string {
	if job.Key != "" {
		return job.Key
	}
	return job.ID
}

// Do runs one job on the fleet and blocks until it resolves: a Result
// (whose Status may still be an error status — those are the job's own
// outcome, never retried), ErrQueueFull when the affine backend's
// queue is at bound, ctx's error when the client gives up, or a
// dispatch failure once every attempt is exhausted.
func (c *Coordinator) Do(ctx context.Context, job *Job) (*Result, error) {
	if job.CheckpointEvery == 0 && c.cfg.CheckpointEvery > 0 {
		job.CheckpointEvery = uint64(c.cfg.CheckpointEvery)
	}
	p := &pending{
		job:   job,
		ctx:   ctx,
		done:  make(chan outcome, 1),
		order: c.ring.walk(affinityKey(job)),
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
	c.cond.Broadcast()
	c.mu.Unlock()
	c.dispatched.Add(1)

	defer func() {
		c.mu.Lock()
		delete(c.pending, job.ID)
		c.mu.Unlock()
	}()
	select {
	case out := <-p.done:
		if out.err != nil {
			c.failed.Add(1)
			return nil, out.err
		}
		c.completed.Add(1)
		return out.res, nil
	case <-ctx.Done():
		// The client is gone. A queued job is skipped when a dispatcher
		// reaches it; a running one is canceled by the dispatcher's own
		// ctx watch. Either way nobody is waiting for the outcome.
		p.abandoned.Store(true)
		c.failed.Add(1)
		return nil, ctx.Err()
	}
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
			p := b.queue[0]
			b.queue = b.queue[1:]
			return p
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
			p := victim.queue[0]
			victim.queue = victim.queue[1:]
			c.steals.Add(1)
			return p
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
		if p.abandoned.Load() || p.ctx.Err() != nil {
			continue
		}
		c.runOn(b, p)
	}
}

// connect returns b's live connection, dialing if needed. Checkpoint
// notifications from the worker route to their pending job.
func (c *Coordinator) connect(b *backend) (*rpc.Conn, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.conn != nil && b.conn.Err() == nil {
		return b.conn, nil
	}
	nc, err := net.DialTimeout("tcp", b.addr, c.cfg.DialTimeout)
	b.down = err != nil
	if err != nil {
		return nil, err
	}
	b.conn = rpc.NewConn(nc, c.handleNote)
	return b.conn, nil
}

// drop discards a dead connection (unless a new one already replaced it).
func (c *Coordinator) drop(b *backend, conn *rpc.Conn) {
	conn.Close()
	b.mu.Lock()
	if b.conn == conn {
		b.conn = nil
		b.down = true
	}
	b.mu.Unlock()
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
	p := c.pending[note.ID]
	c.mu.Unlock()
	if p != nil {
		p.setCheckpoint(&note)
		c.checkpoints.Add(1)
	}
}

// runOn dispatches p to backend b and resolves or re-routes it.
func (c *Coordinator) runOn(b *backend, p *pending) {
	p.mu.Lock()
	p.attempts++
	attempt := p.attempts
	job := *p.job
	if p.ckpt != nil {
		// Migration: resume from the freshest streamed checkpoint
		// instead of restarting at cycle zero. Determinism makes the
		// spliced run bit-identical to an uninterrupted one.
		job.Checkpoint = p.ckpt
	}
	p.mu.Unlock()

	conn, err := c.connect(b)
	if err != nil {
		c.retryElsewhere(p, fmt.Errorf("dialing %s: %w", b.addr, err))
		return
	}
	var res Result
	err = conn.Call(p.ctx, MethodRun, &job, &res)
	switch {
	case err == nil:
		res.Worker = b.addr
		if job.Checkpoint != nil && attempt > 1 {
			c.migrations.Add(1)
		}
		p.deliver(outcome{res: &res})
	case p.ctx.Err() != nil:
		// The client gave up mid-run: tell the worker to stop (its
		// machine flows back to its pool) and resolve with the ctx
		// error; Do has already returned it.
		_ = conn.Notify(MethodCancel, &CancelNote{ID: job.ID})
		p.deliver(outcome{err: p.ctx.Err()})
	case isRemote(err):
		// The worker ran the job and refused it (bad image, restore
		// failure). Terminal: another backend would refuse identically.
		p.deliver(outcome{err: fmt.Errorf("backend %s: %w", b.addr, err)})
	default:
		// Transport death: the backend is gone mid-job. Re-dispatch.
		c.drop(b, conn)
		c.retryElsewhere(p, fmt.Errorf("backend %s: %w", b.addr, err))
	}
}

// isRemote reports whether err is the remote handler's refusal rather
// than a transport failure.
func isRemote(err error) bool {
	var re *rpc.Error
	return errors.As(err, &re)
}

// retryElsewhere re-queues p on its next failover backend after a
// backoff, or fails it once attempts are exhausted.
func (c *Coordinator) retryElsewhere(p *pending, cause error) {
	p.mu.Lock()
	attempt := p.attempts
	p.mu.Unlock()
	if attempt >= c.cfg.Attempts {
		p.deliver(outcome{err: fmt.Errorf("dispatch: job %s failed after %d attempts: %w",
			p.job.ID, attempt, cause)})
		return
	}
	c.retries.Add(1)
	// Exponential backoff, capped: a dead backend should not turn into
	// a tight redial loop, but a healthy failover must not idle long.
	pause := c.cfg.RetryBackoff << (attempt - 1)
	if max := 2 * time.Second; pause > max {
		pause = max
	}
	select {
	case <-time.After(pause):
	case <-p.ctx.Done():
		p.deliver(outcome{err: p.ctx.Err()})
		return
	}
	target := c.backs[p.order[attempt%len(p.order)]]
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		p.deliver(outcome{err: ErrClosed})
		return
	}
	target.queue = append(target.queue, p)
	c.cond.Broadcast()
	c.mu.Unlock()
}
