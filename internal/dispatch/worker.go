package dispatch

import (
	"context"
	"encoding/json"
	"sync"

	"repro/internal/rpc"
)

// Worker serves an Executor over internal/rpc: the backend half of
// distributed lbp-serve. It adds only what the wire needs — decoding,
// per-job cancel notifications, checkpoint streaming. Serve accepts
// coordinator connections on a TCP listener until Close, which severs
// them: every running job's context cancels and its machine flows back
// through the usual accounting.
type Worker struct {
	*Executor
	*rpc.Server
	running sync.Map // job ID → context.CancelFunc of its run
}

// NewWorker builds a worker; start it with Serve. The argument is
// ignored (see WorkerConfig).
func NewWorker(WorkerConfig) *Worker {
	w := &Worker{Executor: NewExecutor()}
	w.Server = rpc.NewServer(w)
	return w
}

// ServeRPC dispatches one protocol method. MethodRun runs in the
// per-request goroutine internal/rpc already provides, so a long job
// never blocks a cancel on the same connection.
func (w *Worker) ServeRPC(ctx context.Context, conn *rpc.ServerConn, method string, params json.RawMessage) (any, error) {
	switch method {
	case MethodRun:
		var job Job
		if err := json.Unmarshal(params, &job); err != nil {
			return nil, &rpc.Error{Code: rpc.CodeInvalidParams, Message: err.Error()}
		}
		runCtx, stop := context.WithCancel(ctx)
		defer stop()
		w.running.Store(job.ID, stop)
		defer w.running.Delete(job.ID)
		res, err := w.Run(runCtx, &job, func(cycle uint64, state []byte) bool {
			return conn.Notify(MethodCheckpoint, &CheckpointNote{ID: job.ID, Cycle: cycle, State: state}) == nil
		})
		if err != nil {
			return nil, err
		}
		return res, nil
	case MethodCancel:
		var note CancelNote
		if err := json.Unmarshal(params, &note); err != nil {
			return nil, &rpc.Error{Code: rpc.CodeInvalidParams, Message: err.Error()}
		}
		// Stop the named job at its next slice boundary; an unknown
		// (already finished) one is a no-op.
		if stop, ok := w.running.Load(note.ID); ok {
			stop.(context.CancelFunc)()
		}
		return nil, nil
	}
	return nil, &rpc.Error{Code: rpc.CodeMethodNotFound, Message: method}
}
