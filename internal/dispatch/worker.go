package dispatch

import (
	"context"
	"encoding/json"

	"repro/internal/rpc"
)

// Worker serves an Executor over internal/rpc: the backend half of
// distributed lbp-serve. It adds only what the wire needs — decoding
// and checkpoint streaming. Serve accepts coordinator connections on a
// TCP listener until Close, which severs them: every running job's
// context cancels and its machine flows back through the usual
// accounting.
type Worker struct {
	*Executor
	*rpc.Server
}

// NewWorker builds a worker; start it with Serve. The argument is
// ignored (see WorkerConfig).
func NewWorker(WorkerConfig) *Worker {
	w := &Worker{Executor: NewExecutor()}
	w.Server = rpc.NewServer(w)
	return w
}

// ServeRPC dispatches one protocol method. MethodRun runs in the
// per-call goroutine internal/rpc already provides, under the call's
// context, which the rpc layer cancels when the coordinator abandons
// the call or the connection dies.
func (w *Worker) ServeRPC(ctx context.Context, conn *rpc.ServerConn, method string, params json.RawMessage) (any, error) {
	if method != MethodRun {
		return nil, &rpc.Error{Code: rpc.CodeMethodNotFound, Message: method}
	}
	var job Job
	wire := wireJob{Job: &job}
	if err := json.Unmarshal(params, &wire); err != nil {
		return nil, &rpc.Error{Code: rpc.CodeInvalidParams, Message: err.Error()}
	}
	wire.attach(rpc.Attachment(ctx)) // good until this returns, and Run is done with it by then
	res, err := w.Run(ctx, &job, func(cycle uint64, state []byte) bool {
		return conn.Notify(MethodCheckpoint, CheckpointNote{ID: job.ID, Cycle: cycle, State: state}) == nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
