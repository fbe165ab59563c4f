package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/asm"
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
	connect() error // establish the connection if there is none: the one place a dial happens
	up() bool       // connected right now: only then do its dispatchers take work
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
func (local) connect() error                              { return nil }
func (local) up() bool                                    { return true }
func (local) close()                                      {}

// remote runs jobs on a Worker over one multiplexed rpc connection,
// dialed by Coordinator.connect and dropped on a transport death. up
// reads an atomic: the coordinator calls it under its own lock
// (Coordinator.next), so it must never wait behind a dial.
type remote struct {
	addr   string
	dial   func() (net.Conn, error)                                   // one bounded connection attempt to addr
	onNote func(method string, params json.RawMessage, attach []byte) // checkpoint notifications

	dialing sync.Mutex               // serializes dials and close
	conn    atomic.Pointer[rpc.Conn] // nil until dialed; dropped on transport death
}

func (r *remote) run(p *pending, job *Job) (*Result, error) {
	if job.Image == nil && job.Program != nil {
		// The program crosses the wire as an image, serialized once per
		// job: retries reuse the bytes.
		if p.image == nil {
			img := bytes.NewBuffer(make([]byte, 0, imageBytes(job.Program)))
			if err := job.Program.WriteImage(img); err != nil {
				return nil, refusal("serializing program", err)
			}
			p.image = img.Bytes()
		}
		job.Image = p.image
	}
	conn := r.live()
	if conn == nil {
		// The connection died between the queue and here.
		return nil, fmt.Errorf("backend %s: %w", r.addr, rpc.ErrClosed)
	}
	var res Result
	err := conn.Call(p.ctx, MethodRun, wireJob{Job: job, Resume: len(job.Checkpoint) > 0}, &res)
	switch {
	case err == nil:
		return &res, nil
	case p.ctx.Err() != nil:
		// The caller gave up mid-run, and Call told the worker to stop
		// (its machine flows back to its pool): the link is fine.
	case errors.Is(err, rpc.ErrFrameTooLarge):
		// Nothing was sent and the link is fine: the job, as it stands,
		// cannot cross it.
		return nil, refusal("sending job", err)
	case !isRefusal(err):
		r.drop(conn)
	}
	return nil, fmt.Errorf("backend %s: %w", r.addr, err)
}

// imageBytes bounds the size of p's image (asm's WriteImage format), so
// that the buffer it is written into is allocated once: 9 bytes a word,
// and a line of at most 64 bytes for the header, 32 a segment and 16
// plus the name a symbol.
func imageBytes(p *asm.Program) int {
	n := 64 + 9*len(p.Text)
	for _, s := range p.Segments {
		n += 32 + 9*len(s.Words)
	}
	for name := range p.Symbols {
		n += 16 + len(name)
	}
	return n
}

// live returns the connection if there is one and it has not died.
func (r *remote) live() *rpc.Conn {
	if c := r.conn.Load(); c != nil && c.Err() == nil {
		return c
	}
	return nil
}

// connect dials unless there is a live connection already.
func (r *remote) connect() error {
	r.dialing.Lock()
	defer r.dialing.Unlock()
	if r.live() != nil {
		return nil
	}
	nc, err := r.dial()
	if err != nil {
		return err
	}
	r.conn.Store(rpc.NewConn(nc, r.onNote))
	return nil
}

// drop discards a dead connection (unless a new one already replaced it).
func (r *remote) drop(conn *rpc.Conn) {
	conn.Close()
	r.conn.CompareAndSwap(conn, nil)
}

func (r *remote) up() bool { return r.live() != nil }

func (r *remote) close() {
	r.dialing.Lock()
	defer r.dialing.Unlock()
	if c := r.conn.Swap(nil); c != nil {
		c.Close()
	}
}
