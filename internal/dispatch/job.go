// Package dispatch is lbp-serve's job path behind the HTTP edge. An
// Executor runs one Job on a warm sim.Pool machine — the only place in
// the serving stack that simulates. A Coordinator queues jobs and hands
// each to a backend, which reaches an Executor one of two ways: in
// process (NewLocal: a plain call, nothing serialized) or over
// internal/rpc to a Worker, the rpc handler around a remote Executor
// (New: one backend per address).
//
// Determinism is what makes the whole design safe: every job is a pure
// function of its canonical content (sim.CacheKey hashes the program
// image and every result-affecting parameter), so any worker produces
// bit-identical results, a retried job cannot diverge from its first
// attempt, and a job migrated mid-run via a checkpoint finishes with
// exactly the digest of an uninterrupted run.
//
// It is also what makes placement free: the coordinator keeps one FIFO
// and any dispatcher of a connected backend takes its head. Nothing a
// worker holds is keyed by program — its warm machines are pooled by
// geometry, and loading a program is one cheap decode — so there is
// nothing for a job to be affine to. A backend that cannot be reached
// takes no work and re-dials on its own clock; a job whose link died
// goes back to the front of the queue with its freshest checkpoint.
package dispatch

import (
	"bytes"
	"fmt"

	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// Protocol method names (coordinator → worker over internal/rpc).
const (
	// MethodRun executes one Job and returns a Result. While it is
	// pending the worker may push MethodCheckpoint notifications.
	MethodRun = "lbp.run"
	// MethodCancel is a client-to-worker notification: stop the named
	// job at its next slice boundary (the pending MethodRun answers
	// with StatusCanceled).
	MethodCancel = "lbp.cancel"
	// MethodCheckpoint is a worker-to-coordinator notification carrying
	// a running job's latest streamed checkpoint.
	MethodCheckpoint = "lbp.checkpoint"
)

// Job is one simulation: the program (compiled exactly once, at the
// HTTP edge) plus the resolved result-affecting parameters. On the wire
// (wireJob) its JSON fields are the lbp.run frame's line and its one
// byte field in use — Checkpoint, or else Image — the frame's raw
// attachment.
type Job struct {
	ID string `json:"id"`

	// Program is the compiled program, for callers that have one: an
	// in-process backend runs it as is, a remote backend serializes it
	// into Image once per job. Nil means Image carries the program.
	Program *asm.Program `json:"-"`

	// Key is the job's canonical content address (sim.CacheKey): the
	// result-cache key, and the proof that two jobs with equal keys are
	// the same pure function. Dispatch does not route by it.
	Key string `json:"key"`

	// Image is the serialized program (asm.Program.WriteImage bytes). It
	// crosses the wire as the lbp.run frame's attachment, unless
	// Checkpoint is set: an executor never reads a resumed job's image.
	Image []byte `json:"-"`

	Cores     int    `json:"cores,omitempty"`
	BankBytes uint32 `json:"bankBytes,omitempty"`
	MaxCycles uint64 `json:"maxCycles,omitempty"`
	Digest    bool   `json:"digest,omitempty"`
	Ring      int    `json:"ring,omitempty"`
	Profile   bool   `json:"profile,omitempty"`

	// DeadlineMs bounds one attempt's host wall-clock run time (0 = no
	// worker-side deadline). Each re-dispatch attempt gets the full
	// budget: the deadline guards against a wedged run, not total
	// latency, which the client's own context bounds end to end.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`

	// Checkpoint, when non-empty, resumes the job from serialized
	// machine state instead of loading Image fresh — how a job migrates
	// to another worker after its first backend died mid-run. It crosses
	// the wire as the lbp.run frame's attachment, in Image's place.
	Checkpoint []byte `json:"-"`

	// CheckpointEvery streams a checkpoint notification to the
	// coordinator every n simulated cycles (0 = never). Serialization
	// happens between Advance slices at cycle boundaries, so streaming
	// never perturbs the simulated results.
	CheckpointEvery uint64 `json:"checkpointEvery,omitempty"`
}

// wireJob is a Job as MethodRun carries it: the JSON fields in the
// frame's line, Resume among them, and Checkpoint (Resume) or Image as
// the frame's attachment.
type wireJob struct {
	*Job
	Resume bool `json:"resume,omitempty"`
}

func (w wireJob) Attachment() []byte {
	if w.Resume {
		return w.Checkpoint
	}
	return w.Image
}

// attach puts a received attachment in the field Attachment sent it from.
func (w wireJob) attach(b []byte) {
	if w.Resume {
		w.Checkpoint = b
	} else {
		w.Image = b
	}
}

// refusal is an Executor's terminal "cannot run this job" (bad image,
// bad checkpoint, bad geometry). It is an *rpc.Error so it crosses the
// wire verbatim and classifies the same from either kind of backend:
// never retried, because every Executor would refuse identically.
func refusal(what string, err error) error {
	return &rpc.Error{Code: rpc.CodeInvalidParams, Message: fmt.Sprintf("%s: %v", what, err)}
}

// Spec is the machine the job runs on. Image is decoded only when no
// compiled program was handed over, i.e. when the job crossed the wire.
func (j *Job) Spec() (sim.Spec, error) {
	prog := j.Program
	if prog == nil {
		var err error
		if prog, err = asm.ReadImage(bytes.NewReader(j.Image)); err != nil {
			return sim.Spec{}, refusal("decoding program image", err)
		}
	}
	return sim.Spec{
		Program:         prog,
		Cores:           j.Cores,
		SharedBankBytes: j.BankBytes,
		MaxCycles:       j.MaxCycles,
		Trace:           sim.TraceSpec{Digest: j.Digest, Ring: j.Ring},
		Profile:         j.Profile,
	}, nil
}

// Job outcome statuses (Result.Status). The serving layer's status
// values are these (plus its own "rejected"), mapped onto HTTP codes.
const (
	StatusOK        = "ok"        // run completed (Halt says how)
	StatusError     = "error"     // machine fault or cycle budget exceeded
	StatusDeadline  = "deadline"  // the attempt's wall-clock deadline elapsed
	StatusCanceled  = "canceled"  // the caller canceled the job mid-run
	StatusPreempted = "preempted" // stopped by ErrPreempted; see Result.Checkpoint
)

// Result is the outcome of one Job. Halt, Cycles, Retired, IPC,
// Digest, Events, Tail, Mem and Perf are fully deterministic — equal
// for any worker, any attempt, resumed or not. Everything from Worker
// down is host-side.
type Result struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	Halt    string  `json:"halt,omitempty"`
	Cycles  uint64  `json:"cycles,omitempty"`
	Retired uint64  `json:"retired,omitempty"`
	IPC     float64 `json:"ipc,omitempty"`

	Digest uint64   `json:"digest,omitempty"`
	Events uint64   `json:"events,omitempty"`
	Tail   []string `json:"tail,omitempty"`

	Mem  *mem.Stats     `json:"mem,omitempty"`
	Perf *perf.Snapshot `json:"perf,omitempty"`

	Worker   string `json:"worker,omitempty"`  // address that produced the result
	PoolWarm bool   `json:"poolWarm"`          // served by a warm pooled machine
	Resumed  bool   `json:"resumed,omitempty"` // ran from a migrated checkpoint

	// Stamped by the Coordinator, never sent: the job's wait in backend
	// queues and its time inside backend calls, summed over attempts.
	QueueMs float64 `json:"-"`
	RunMs   float64 `json:"-"`

	// Checkpoint is the machine state of a StatusPreempted job (nil if
	// serializing it failed — Error says why). Never sent.
	Checkpoint []byte `json:"-"`
}

// CheckpointNote is the payload of a MethodCheckpoint notification.
type CheckpointNote struct {
	ID    string `json:"id"`
	Cycle uint64 `json:"cycle"`
	// State is the checkpoint (sim.Session.Checkpoint bytes); it crosses
	// the wire as the notification's attachment.
	State []byte `json:"-"`
}

func (n CheckpointNote) Attachment() []byte { return n.State }

// CancelNote is the payload of a MethodCancel notification.
type CancelNote struct {
	ID string `json:"id"`
}
