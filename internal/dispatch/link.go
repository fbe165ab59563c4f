package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/rpc"
)

// link is how a backend reaches its Executor. Two implementations:
// remote (rpc to a Worker process) and local (a call in this process).
type link interface {
	// run executes one attempt of p's job (job is the attempt's own
	// copy). An error for which isRefusal holds is the executor's
	// terminal answer; any other error, while p.ctx is live, means the
	// link died and the job may be retried elsewhere.
	run(p *pending, job *Job) (*Result, error)
	up() bool     // reachable right now (Metrics.BackendsUp)
	isDown() bool // last seen dead: it must not steal work
	close()
}

// isRefusal reports whether err is an executor's refusal rather than a
// link failure.
func isRefusal(err error) bool {
	var re *rpc.Error
	return errors.As(err, &re)
}

// local runs jobs on an Executor in this process: no socket, no
// serialization, no checkpoint sink — a backend that cannot die alone
// needs no migration points.
type local struct{ exec *Executor }

func (l local) run(p *pending, job *Job) (*Result, error) { return l.exec.Run(p.ctx, job, nil) }
func (local) up() bool                                    { return true }
func (local) isDown() bool                                { return false }
func (local) close()                                      {}

// remote runs jobs on a Worker over one multiplexed rpc connection,
// dialed on first use and redialed after a transport death. up and
// isDown read atomics: the coordinator calls them under its own lock
// (Coordinator.next), so they must never wait behind a dial.
type remote struct {
	addr   string
	dial   func() (net.Conn, error)                    // one bounded connection attempt to addr
	onNote func(method string, params json.RawMessage) // checkpoint notifications

	dialing sync.Mutex               // serializes (re)dials and close
	conn    atomic.Pointer[rpc.Conn] // nil until dialed; dropped on transport death
	down    atomic.Bool              // the last dial failed or the last conn died; cleared by the next successful dial
}

func (r *remote) run(p *pending, job *Job) (*Result, error) {
	if job.Image == nil && job.Program != nil {
		// The program crosses the wire as an image, serialized once per
		// job: retries reuse the bytes.
		if p.image == nil {
			var img bytes.Buffer
			if err := job.Program.WriteImage(&img); err != nil {
				return nil, refusal("serializing program", err)
			}
			p.image = img.Bytes()
		}
		job.Image = p.image
	}
	conn, err := r.connect()
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", r.addr, err)
	}
	var res Result
	err = conn.Call(p.ctx, MethodRun, job, &res)
	switch {
	case err == nil:
		return &res, nil
	case p.ctx.Err() != nil:
		// The caller gave up mid-run: tell the worker to stop (its
		// machine flows back to its pool).
		_ = conn.Notify(MethodCancel, &CancelNote{ID: job.ID})
	case !isRefusal(err):
		r.drop(conn)
	}
	return nil, fmt.Errorf("backend %s: %w", r.addr, err)
}

// live returns the connection if there is one and it has not died.
func (r *remote) live() *rpc.Conn {
	if c := r.conn.Load(); c != nil && c.Err() == nil {
		return c
	}
	return nil
}

// connect returns the live connection, dialing if needed.
func (r *remote) connect() (*rpc.Conn, error) {
	if c := r.live(); c != nil {
		return c, nil
	}
	r.dialing.Lock()
	defer r.dialing.Unlock()
	if c := r.live(); c != nil {
		return c, nil // another dispatcher dialed while this one waited
	}
	nc, err := r.dial()
	r.down.Store(err != nil)
	if err != nil {
		return nil, err
	}
	c := rpc.NewConn(nc, r.onNote)
	r.conn.Store(c)
	return c, nil
}

// drop discards a dead connection (unless a new one already replaced it).
func (r *remote) drop(conn *rpc.Conn) {
	conn.Close()
	if r.conn.CompareAndSwap(conn, nil) {
		r.down.Store(true)
	}
}

func (r *remote) up() bool     { return r.live() != nil }
func (r *remote) isDown() bool { return r.down.Load() }

func (r *remote) close() {
	r.dialing.Lock()
	defer r.dialing.Unlock()
	if c := r.conn.Swap(nil); c != nil {
		c.Close()
	}
}
