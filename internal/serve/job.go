package serve

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/dispatch"
	"repro/internal/lbp"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/sim"
)

// JobRequest is the body of POST /jobs: one simulation to run. Exactly
// one of Source or Image carries the program; everything else is
// optional and zero-defaults like sim.Spec.
type JobRequest struct {
	// Source is MiniC ("c", the default) or LBP assembly ("s") text.
	Source string `json:"source,omitempty"`
	Lang   string `json:"lang,omitempty"`

	// Image is a serialized program image (lbp-asm output), base64 in
	// JSON. Alternative to Source.
	Image []byte `json:"image,omitempty"`

	Cores     int    `json:"cores,omitempty"`     // 0 = 4
	BankBytes uint32 `json:"bankBytes,omitempty"` // 0 = default; else a power of two
	MaxCycles uint64 `json:"maxCycles,omitempty"` // 0 = server default; capped by the server

	Digest  bool `json:"digest,omitempty"`  // fold the event trace into a digest
	Ring    int  `json:"ring,omitempty"`    // retain the last Ring events (returned as Tail)
	Profile bool `json:"profile,omitempty"` // return the deterministic perf snapshot

	// DeadlineMs bounds the job's host wall-clock run time; 0 uses the
	// server default. The simulated-cycle budget is MaxCycles.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
}

// validate rejects malformed requests before they consume a queue slot.
func (r *JobRequest) validate() error {
	hasSource, hasImage := r.Source != "", len(r.Image) > 0
	if hasSource == hasImage {
		return fmt.Errorf("exactly one of source and image is required")
	}
	switch r.Lang {
	case "", "c", "s":
	default:
		return fmt.Errorf("lang %q must be \"c\" or \"s\"", r.Lang)
	}
	if hasImage && r.Lang != "" {
		return fmt.Errorf("lang applies to source, not image")
	}
	// An image was assembled against a fixed bank layout; resizing the
	// banks underneath it silently runs a different machine than the
	// one the program was built for. Reject instead of ignoring.
	if hasImage && r.BankBytes != 0 {
		return fmt.Errorf("bankBytes applies to source, not image (the image fixed its bank layout at assembly)")
	}
	if r.Cores < 0 {
		return fmt.Errorf("cores %d must not be negative", r.Cores)
	}
	// 0 means "server default" (4); anything else must be a geometry the
	// simulator accepts, rejected here so the client gets a 400 instead
	// of a queued job that dies at machine construction.
	if r.Cores != 0 {
		if err := lbp.ValidateGeometry(r.Cores, 0); err != nil {
			return err
		}
	}
	if r.BankBytes != 0 {
		if err := cc.CheckBank(uint64(r.BankBytes), uint64(cc.DefaultOptions().BankReserveBytes)); err != nil {
			return fmt.Errorf("bankBytes: %v", err)
		}
	}
	if r.Ring < 0 || r.Ring > sim.MaxTraceRing {
		return fmt.Errorf("ring %d must be between 0 and %d", r.Ring, sim.MaxTraceRing)
	}
	if r.DeadlineMs < 0 {
		return fmt.Errorf("deadlineMs %d must not be negative", r.DeadlineMs)
	}
	return nil
}

// compile builds the program (validate has vetted the form fields).
func (r *JobRequest) compile() (*asm.Program, error) {
	switch {
	case len(r.Image) > 0:
		return sim.Compile("img", r.Image, 0, 0)
	case r.Lang == "s":
		return sim.Compile("s", []byte(r.Source), 0, 0)
	}
	return sim.Compile("c", []byte(r.Source), r.Cores, r.BankBytes)
}

// Job status values. A job that ran ends in one of dispatch's outcomes,
// spelled once there.
const (
	StatusOK        = dispatch.StatusOK        // run completed (Halt says how)
	StatusError     = dispatch.StatusError     // machine fault or cycle budget exceeded
	StatusDeadline  = dispatch.StatusDeadline  // wall-clock deadline elapsed mid-run
	StatusCanceled  = dispatch.StatusCanceled  // client went away mid-run
	StatusPreempted = dispatch.StatusPreempted // server shut down mid-run; see Checkpoint
	StatusRejected  = "rejected"               // never ran (bad request, queue full, draining)
)

// JobResult is the response body for one job. Cycles, Retired, IPC,
// Digest, Events, Mem and Perf are fully deterministic: any client
// running the same request anywhere — including a local sim.Session —
// sees identical values bit for bit. ID, Cached, PoolWarm, QueueMs and
// RunMs are host-side diagnostics and vary run to run (the result
// cache stores payloads with all of them zeroed, which is why a cache
// hit is byte-identical to a cold run in every deterministic field).
type JobResult struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	Halt    string  `json:"halt,omitempty"`
	Cycles  uint64  `json:"cycles,omitempty"`
	Retired uint64  `json:"retired,omitempty"`
	IPC     float64 `json:"ipc,omitempty"`

	Digest uint64   `json:"digest,omitempty"`
	Events uint64   `json:"events,omitempty"`
	Tail   []string `json:"tail,omitempty"` // last Ring events, oldest first

	Mem  *mem.Stats     `json:"mem,omitempty"`
	Perf *perf.Snapshot `json:"perf,omitempty"`

	// Checkpoint is the server-side path of the serialized machine
	// state of a preempted job; lbp-run -resume picks it back up.
	Checkpoint string `json:"checkpoint,omitempty"`

	// Worker is the address of the worker process that ran the job
	// (absent when it ran in process; host-side, zeroed in cached
	// payloads).
	Worker string `json:"worker,omitempty"`

	Cached   bool    `json:"cached,omitempty"` // served from the result cache, no cycles simulated
	PoolWarm bool    `json:"poolWarm"`         // served by a warm pooled machine
	QueueMs  float64 `json:"queueMs"`          // wait in the coordinator's queue
	RunMs    float64 `json:"runMs"`            // wall time inside the backend call
}
