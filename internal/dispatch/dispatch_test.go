package dispatch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/sim"
)

// quickSource exits after a few hundred cycles.
const quickSource = `main:
	li t1, 100
loop:
	addi t1, t1, -1
	bne t1, zero, loop
	li ra, 0
	li t0, -1
	p_ret
`

// spinSource busy-loops for a few million simulated cycles — long
// enough to kill a worker mid-run — then exits cleanly.
const spinSource = `main:
	li t1, 2000000
loop:
	addi t1, t1, -1
	bne t1, zero, loop
	li ra, 0
	li t0, -1
	p_ret
`

// imageOf assembles source and returns its serialized image.
func imageOf(t *testing.T, source string) []byte {
	t.Helper()
	prog, err := asm.Assemble(source, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prog.WriteImage(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// directRun executes a job's spec locally through sim.Session: the
// deterministic outcome every dispatch path must reproduce bit for bit.
func directRun(t *testing.T, job *Job) *Result {
	t.Helper()
	prog, err := asm.ReadImage(bytes.NewReader(job.Image))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sim.New(sim.Spec{
		Program:         prog,
		Cores:           job.Cores,
		SharedBankBytes: job.BankBytes,
		MaxCycles:       job.MaxCycles,
		Trace:           sim.TraceSpec{Digest: job.Digest, Ring: job.Ring},
		Profile:         job.Profile,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := &Result{Status: StatusOK}
	fillResult(out, sess, res, job.Ring)
	return out
}

// sameDeterministic fails the test unless got reproduces want's
// deterministic fields exactly.
func sameDeterministic(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Halt != want.Halt || got.Cycles != want.Cycles || got.Retired != want.Retired ||
		got.Digest != want.Digest || got.Events != want.Events || got.IPC != want.IPC {
		t.Errorf("%s diverged: halt=%q cycles=%d retired=%d digest=%#x events=%d,"+
			" want halt=%q cycles=%d retired=%d digest=%#x events=%d",
			label, got.Halt, got.Cycles, got.Retired, got.Digest, got.Events,
			want.Halt, want.Cycles, want.Retired, want.Digest, want.Events)
	}
	if want.Mem != nil && (got.Mem == nil || *got.Mem != *want.Mem) {
		t.Errorf("%s: memory stats diverged: %+v, want %+v", label, got.Mem, want.Mem)
	}
	if want.Perf != nil && (got.Perf == nil || got.Perf.HartCycles != want.Perf.HartCycles) {
		t.Errorf("%s: perf snapshot diverged", label)
	}
}

// startWorker boots a worker on an ephemeral port; cleanup closes it.
func startWorker(t *testing.T, cfg WorkerConfig) (*Worker, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(cfg)
	go w.Serve(ln)
	t.Cleanup(func() { w.Close() })
	return w, ln.Addr().String()
}

// waitFor polls cond for up to 10 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSingleBackendRoundTrip: one worker, one job, deterministic
// fields identical to a direct run; the machine flows back to the pool.
func TestSingleBackendRoundTrip(t *testing.T) {
	w, addr := startWorker(t, WorkerConfig{Slice: 1024})
	c, err := New(Config{Backends: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job := &Job{ID: "job-1", Key: "k1", Image: imageOf(t, quickSource),
		Cores: 1, MaxCycles: 1_000_000, Digest: true, Ring: 4, Profile: true}
	want := directRun(t, job)
	res, err := c.Do(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOK {
		t.Fatalf("status %q (%s), want ok", res.Status, res.Error)
	}
	sameDeterministic(t, "dispatched job", res, want)
	if res.Worker != addr {
		t.Errorf("result worker = %q, want %q", res.Worker, addr)
	}
	if len(res.Tail) == 0 {
		t.Error("ring requested but tail empty")
	}
	m := w.Metrics()
	if m.CheckedOut != 1 || m.PoolReturned != 1 || m.MachinesOut != 0 {
		t.Errorf("machine accounting off: %+v", m)
	}
	cm := c.Metrics()
	if cm.Completed != 1 || cm.Failed != 0 || cm.BackendsUp != 1 {
		t.Errorf("coordinator metrics off: %+v", cm)
	}
}

// holdJobs starts n copies of the long spinSource job, every one with
// the same Key, and returns a func that cancels them and waits for
// their Do calls to return.
func holdJobs(t *testing.T, c *Coordinator, n int) (release func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		job := &Job{ID: fmt.Sprintf("hold-%d", i), Key: "one-key", Image: imageOf(t, spinSource),
			Cores: 1, MaxCycles: 500_000_000}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do(ctx, job)
		}()
	}
	return func() { cancel(); wg.Wait() }
}

// TestIdleBackendTakesQueuedWork: no connected backend idles while a
// job is queued. Two backends of one slot each, two long jobs with the
// same key: both must be running at once, one per worker.
func TestIdleBackendTakesQueuedWork(t *testing.T) {
	w1, addr1 := startWorker(t, WorkerConfig{Slice: 1024})
	w2, addr2 := startWorker(t, WorkerConfig{Slice: 1024})
	c, err := New(Config{Backends: []string{addr1, addr2}, PerBackend: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	release := holdJobs(t, c, 2)
	defer release()
	waitFor(t, "both workers running one job each", func() bool {
		return w1.Metrics().MachinesOut == 1 && w2.Metrics().MachinesOut == 1
	})
	if m := c.Metrics(); m.Running != 2 || m.Queued != 0 {
		t.Errorf("metrics with both jobs running: %+v, want 2 running, 0 queued", m)
	}
}

// gatedLink is a backend that reports each job it is handed and holds
// it until the gate opens.
type gatedLink struct {
	started chan string
	gate    chan struct{}
}

func (l gatedLink) run(p *pending, job *Job) (*Result, error) {
	l.started <- job.ID
	<-l.gate
	return &Result{Status: StatusOK}, nil
}
func (gatedLink) connect() error { return nil }
func (gatedLink) up() bool       { return true }
func (gatedLink) close()         {}

// TestQueueIsFIFO: queued jobs start in admission order.
func TestQueueIsFIFO(t *testing.T) {
	const jobs = 6
	l := gatedLink{started: make(chan string, jobs+1), gate: make(chan struct{})}
	c := start(Config{Backends: []string{""}, PerBackend: 1}, func(*Coordinator, string) link { return l })
	defer c.Close()
	var wg sync.WaitGroup
	defer wg.Wait()
	do := func(id string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Do(context.Background(), &Job{ID: id}); err != nil {
				t.Errorf("job %s: %v", id, err)
			}
		}()
	}
	do("holder") // occupies the one slot while the others queue
	<-l.started
	for i := 0; i < jobs; i++ {
		do(fmt.Sprintf("fifo-%d", i))
		waitFor(t, "job queued", func() bool { return c.Metrics().Queued == i+1 })
	}
	close(l.gate)
	for i := 0; i < jobs; i++ {
		if got, want := <-l.started, fmt.Sprintf("fifo-%d", i); got != want {
			t.Fatalf("start %d was job %s, want %s: the queue is not FIFO", i, got, want)
		}
	}
}

// TestDeadBackendTakesNoWorkAndRejoins: with one of two backends dead,
// jobs neither fail over from it nor wait out a backoff — it is handed
// none, its failed dials charge nobody — and once its worker is back it
// rejoins on its own re-dial clock and runs jobs again.
func TestDeadBackendTakesNoWorkAndRejoins(t *testing.T) {
	// A port with nothing behind it yet: the worker "restarts" there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	live, liveAddr := startWorker(t, WorkerConfig{Slice: 1024})

	const backoff = 300 * time.Millisecond
	c, err := New(Config{Backends: []string{deadAddr, liveAddr}, PerBackend: 1,
		RetryBackoff: backoff, DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	image := imageOf(t, quickSource)
	const jobs = 12
	for i := 0; i < jobs; i++ {
		res, err := c.Do(context.Background(), &Job{ID: fmt.Sprintf("job-%d", i), Key: fmt.Sprintf("key-%d", i),
			Image: image, Cores: 1, MaxCycles: 1_000_000})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Worker != liveAddr {
			t.Errorf("job %d ran on %q, want the live backend %q", i, res.Worker, liveAddr)
		}
		if wait := time.Duration(res.QueueMs * float64(time.Millisecond)); wait >= backoff {
			t.Errorf("job %d waited %v in the queue: it sat out a %v backoff", i, wait, backoff)
		}
	}
	if m := c.Metrics(); m.Retries != 0 || m.Completed != jobs || m.BackendsUp != 1 {
		t.Errorf("metrics = %+v, want no retry, %d completed, 1 backend up", m, jobs)
	}
	if n := live.Metrics().Completed; n != jobs {
		t.Errorf("the live worker completed %d jobs, want all %d", n, jobs)
	}

	// The worker comes back on the same address.
	ln, err = net.Listen("tcp", deadAddr)
	if err != nil {
		t.Skipf("cannot listen on %s again: %v", deadAddr, err)
	}
	back := NewWorker(WorkerConfig{Slice: 1024})
	go back.Serve(ln)
	defer back.Close()
	waitFor(t, "the restarted backend to rejoin", func() bool { return c.Metrics().BackendsUp == 2 })
	release := holdJobs(t, c, 2)
	defer release()
	waitFor(t, "both workers running one job each", func() bool {
		return live.Metrics().MachinesOut == 1 && back.Metrics().MachinesOut == 1
	})
}

// TestWorkerLossMigratesFromCheckpoint is the tentpole acceptance
// test: a worker dies mid-job, the coordinator re-dispatches the job
// to the survivor resuming from the last streamed checkpoint, and the
// final result is bit-identical to an uninterrupted run.
func TestWorkerLossMigratesFromCheckpoint(t *testing.T) {
	w1, addr1 := startWorker(t, WorkerConfig{Slice: 4096})
	w2, addr2 := startWorker(t, WorkerConfig{Slice: 4096})
	c, err := New(Config{Backends: []string{addr1, addr2}, CheckpointEvery: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job := &Job{ID: "migrating-job", Key: "migrating-key", Image: imageOf(t, spinSource),
		Cores: 1, MaxCycles: 50_000_000, Digest: true}
	want := directRun(t, job)

	done := make(chan struct{})
	var res *Result
	var doErr error
	go func() {
		defer close(done)
		res, doErr = c.Do(context.Background(), job)
	}()
	// Kill the worker only after a checkpoint has streamed, so the retry
	// is a true mid-run migration, not a cold restart. The victim is
	// whichever worker holds the job's machine.
	waitFor(t, "first streamed checkpoint", func() bool { return c.Metrics().Checkpoints > 0 })
	if w2.Metrics().MachinesOut == 1 {
		w1, w2, addr2 = w2, w1, addr1
	}
	if out := w1.Metrics().MachinesOut; out != 1 {
		t.Fatalf("no worker holds the job's machine (victim has %d out)", out)
	}
	w1.Close()
	<-done

	if doErr != nil {
		t.Fatalf("migrated job failed: %v", doErr)
	}
	if res.Status != StatusOK {
		t.Fatalf("migrated job status %q (%s), want ok", res.Status, res.Error)
	}
	sameDeterministic(t, "migrated job", res, want)
	if res.Worker != addr2 {
		t.Errorf("survivor %q did not run the job (worker=%q)", addr2, res.Worker)
	}
	if !res.Resumed {
		t.Error("result not marked resumed: the retry restarted from cycle 0 instead of migrating")
	}
	m := c.Metrics()
	if m.Retries == 0 || m.Migrations == 0 {
		t.Errorf("metrics = %+v, want retries > 0 and migrations > 0", m)
	}
	// The killed worker released its machine through the cancel path;
	// the survivor's checkpoint-restored machine was discarded (it
	// cannot be pooled). Nothing leaks on either side.
	waitFor(t, "killed worker released its machine", func() bool {
		return w1.Metrics().MachinesOut == 0
	})
	m1, m2 := w1.Metrics(), w2.Metrics()
	if m1.CheckedOut != m1.PoolReturned+m1.PoolDiscarded {
		t.Errorf("worker 1 leaked: %+v", m1)
	}
	if m2.MachinesOut != 0 || m2.CheckedOut != m2.PoolReturned+m2.PoolDiscarded {
		t.Errorf("worker 2 leaked: %+v", m2)
	}
	if m2.Resumed != 1 || m2.PoolDiscarded != 1 {
		t.Errorf("survivor metrics = %+v, want exactly one resumed run discarding its machine", m2)
	}
}

// TestUnrestorableCheckpointRestartsJob: a streamed checkpoint no backend
// can restore — here the LBPCKPT2 bytes a worker of the previous build
// would have streamed — costs the job its migration point, not its
// answer. The first backend dies mid-run, the survivor refuses the
// checkpoint and then runs the job from cycle zero to the digest of a
// direct run; the refused attempt is charged like one lost to a dead
// link, so Attempts still bounds the job.
func TestUnrestorableCheckpointRestartsJob(t *testing.T) {
	for _, attempts := range []int{3, 2} {
		w1, addr1 := startWorker(t, WorkerConfig{Slice: 4096})
		w2, addr2 := startWorker(t, WorkerConfig{Slice: 4096})
		c, err := New(Config{Backends: []string{addr1, addr2}, CheckpointEvery: 64 << 10, Attempts: attempts})
		if err != nil {
			t.Fatal(err)
		}
		job := &Job{ID: "restarting-job", Key: "restarting-key", Image: imageOf(t, spinSource),
			Cores: 1, MaxCycles: 50_000_000, Digest: true}
		want := directRun(t, job)

		done := make(chan struct{})
		var res *Result
		var doErr error
		go func() {
			defer close(done)
			res, doErr = c.Do(context.Background(), job)
		}()
		waitFor(t, "first streamed checkpoint", func() bool { return c.Metrics().Checkpoints > 0 })
		if w2.Metrics().MachinesOut == 1 {
			w1, w2 = w2, w1
		}
		// Replace what the coordinator holds, at a cycle no later
		// notification from the doomed worker can supersede.
		c.mu.Lock()
		p := c.pending[job.ID]
		p.ckpt, p.ckptAt = []byte("LBPCKPT2 state of another build"), ^uint64(0)
		c.mu.Unlock()
		w1.Close()
		<-done

		m := c.Metrics()
		if attempts == 2 {
			if doErr == nil || !strings.Contains(doErr.Error(), "failed after 2 attempts") ||
				!strings.Contains(doErr.Error(), "restoring checkpoint") {
				t.Errorf("Attempts=2: err = %v, want the job failed after 2 attempts, the second refused", doErr)
			}
		} else {
			if doErr != nil || res.Status != StatusOK {
				t.Fatalf("Attempts=3: res=%+v err=%v, want ok", res, doErr)
			}
			sameDeterministic(t, "restarted job", res, want)
			if res.Resumed {
				t.Error("result marked resumed: nothing restorable was left to resume from")
			}
			if m.Retries != 2 || m.Migrations != 0 {
				t.Errorf("retries=%d migrations=%d, want 2 and 0", m.Retries, m.Migrations)
			}
		}
		if m2 := w2.Metrics(); m2.MachinesOut != 0 || m2.CheckedOut != m2.PoolReturned+m2.PoolDiscarded {
			t.Errorf("Attempts=%d: survivor leaked: %+v", attempts, m2)
		}
		c.Close()
	}
}

// TestMachineLeakAccounting drives every failure path a job can take —
// clean finish, budget fault, attempt deadline, client cancel mid-run,
// then coordinator connection death mid-run (rpc worker) or shutdown
// preemption mid-run (in-process backend) — and verifies the executor's
// machine accounting balances to zero afterward, whichever kind of
// backend reached it.
func TestMachineLeakAccounting(t *testing.T) {
	for _, inProcess := range []bool{false, true} {
		name := "rpc worker"
		if inProcess {
			name = "in process"
		}
		t.Run(name, func(t *testing.T) {
			var exec *Executor
			var c *Coordinator
			if inProcess {
				exec = NewExecutor(WorkerConfig{Slice: 1024})
				c = NewLocal(exec, 1, 4)
			} else {
				w, addr := startWorker(t, WorkerConfig{Slice: 1024})
				exec = w.Executor
				var err error
				if c, err = New(Config{Backends: []string{addr}}); err != nil {
					t.Fatal(err)
				}
			}
			defer c.Close()

			quick := imageOf(t, quickSource)
			spin := imageOf(t, spinSource)

			// Clean finish.
			if res, err := c.Do(context.Background(), &Job{ID: "ok", Image: quick, Cores: 1,
				MaxCycles: 1_000_000, Digest: true}); err != nil || res.Status != StatusOK {
				t.Fatalf("ok job: %v / %+v", err, res)
			}
			// Budget exceeded: the machine stops, the executor is healthy.
			if res, err := c.Do(context.Background(), &Job{ID: "budget", Image: spin, Cores: 1,
				MaxCycles: 10_000}); err != nil || res.Status != StatusError {
				t.Fatalf("budget job: %v / %+v", err, res)
			}
			// Attempt deadline.
			if res, err := c.Do(context.Background(), &Job{ID: "deadline", Image: spin, Cores: 1,
				MaxCycles: 500_000_000, DeadlineMs: 30}); err != nil || res.Status != StatusDeadline {
				t.Fatalf("deadline job: %v / %+v", err, res)
			}
			// Client cancel mid-run: an rpc call is abandoned with the
			// context's error, an in-process run still answers.
			ctx, cancel := context.WithCancel(context.Background())
			type reply struct {
				res *Result
				err error
			}
			replies := make(chan reply, 1)
			go func() {
				res, err := c.Do(ctx, &Job{ID: "cancel", Image: spin, Cores: 1, MaxCycles: 500_000_000})
				replies <- reply{res, err}
			}()
			waitFor(t, "cancel job running", func() bool { return exec.Metrics().MachinesOut == 1 })
			cancel()
			if r := <-replies; inProcess && (r.err != nil || r.res.Status != StatusCanceled) {
				t.Fatalf("canceled job: %v / %+v, want a canceled result", r.err, r.res)
			} else if !inProcess && !errors.Is(r.err, context.Canceled) {
				t.Fatalf("canceled job returned %v, want context.Canceled", r.err)
			}
			waitFor(t, "canceled job released", func() bool { return exec.Metrics().MachinesOut == 0 })

			want := ExecutorMetrics{Completed: 1, Errored: 1, Deadline: 1, CheckedOut: 5}
			if inProcess {
				// Shutdown preemption mid-run: the job answers with its
				// machine state, which resumes bit-exactly, and the
				// machine counts as discarded, not leaked.
				job := &Job{ID: "preempt", Image: spin, Cores: 1, MaxCycles: 50_000_000, Digest: true}
				ctx, preempt := context.WithCancelCause(context.Background())
				go func() {
					res, err := c.Do(ctx, job)
					replies <- reply{res, err}
				}()
				waitFor(t, "preempt job running", func() bool { return exec.Metrics().MachinesOut == 1 })
				preempt(ErrPreempted)
				r := <-replies
				if r.err != nil || r.res.Status != StatusPreempted || r.res.Checkpoint == nil {
					t.Fatalf("preempted job: %v / %+v, want a preempted result with a checkpoint", r.err, r.res)
				}
				resumed := *job
				resumed.ID, resumed.Checkpoint = "resumed", r.res.Checkpoint
				res, err := c.Do(context.Background(), &resumed)
				if err != nil || res.Status != StatusOK || !res.Resumed {
					t.Fatalf("resumed job: %v / %+v", err, res)
				}
				sameDeterministic(t, "preempted and resumed job", res, directRun(t, job))
				want.Canceled, want.Preempted, want.Resumed, want.Completed = 1, 1, 1, 2
				want.CheckedOut, want.PoolDiscarded = 6, 2 // the preempted machine and the restored one
			} else {
				// Coordinator dies mid-run: the worker's connection context
				// cancels and the running machine must still flow back.
				midrunDone := make(chan struct{})
				go func() {
					defer close(midrunDone)
					c.Do(context.Background(), &Job{ID: "conn-death", Image: spin, Cores: 1, MaxCycles: 500_000_000})
				}()
				waitFor(t, "conn-death job running", func() bool { return exec.Metrics().MachinesOut == 1 })
				c.Close()
				<-midrunDone
				waitFor(t, "conn-death job released", func() bool { return exec.Metrics().MachinesOut == 0 })
				want.Canceled = 2
			}

			m := exec.Metrics()
			if m.CheckedOut != m.PoolReturned+m.PoolDiscarded || m.MachinesOut != 0 {
				t.Errorf("accounting does not balance: %+v", m)
			}
			want.PoolReturned = want.CheckedOut - want.PoolDiscarded
			if m != want {
				t.Errorf("counters = %+v, want %+v", m, want)
			}
			// Every returned machine is actually in the pool, idle.
			if idle := exec.PoolIdle(); idle == 0 {
				t.Error("no idle machines pooled after returns")
			}
		})
	}
}

// TestQueueFullRefusesAdmission: a queue at bound answers ErrQueueFull
// instead of queueing unboundedly.
func TestQueueFullRefusesAdmission(t *testing.T) {
	// No worker listens: the backend sits in re-dial backoff while the
	// queue holds the job its first failed dial was charged to, and the
	// next.
	c, err := New(Config{
		Backends: []string{"127.0.0.1:1"}, PerBackend: 1, QueueDepth: 2,
		Attempts: 2, RetryBackoff: 30 * time.Second, DialTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	image := imageOf(t, quickSource)
	launch := func(id string) {
		go c.Do(context.Background(), &Job{ID: id, Image: image, Cores: 1, MaxCycles: 1000})
	}
	launch("held") // charged the failed dial, back in the queue
	waitFor(t, "first job charged", func() bool { return c.Metrics().Retries == 1 })
	launch("queued") // fills the other queue slot
	waitFor(t, "queue depth 2", func() bool { return c.Metrics().Queued == 2 })
	_, err = c.Do(context.Background(), &Job{ID: "overflow", Image: image, Cores: 1, MaxCycles: 1000})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow returned %v, want ErrQueueFull", err)
	}
}

// TestAllBackendsDeadFailsAfterAttempts: with nothing listening the
// job exhausts its attempts and reports the last transport error.
func TestAllBackendsDeadFailsAfterAttempts(t *testing.T) {
	c, err := New(Config{
		Backends: []string{"127.0.0.1:1", "127.0.0.1:2"},
		Attempts: 2, RetryBackoff: time.Millisecond, DialTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Do(context.Background(), &Job{ID: "doomed", Image: imageOf(t, quickSource),
		Cores: 1, MaxCycles: 1000})
	if err == nil || !strings.Contains(err.Error(), "dispatch: job doomed failed after 2 attempts: dialing 127.0.0.1:") {
		t.Fatalf("dead fleet returned %v, want a dispatch failure after 2 attempts", err)
	}
	if m := c.Metrics(); m.Failed != 1 || m.Completed != 0 {
		t.Errorf("metrics = %+v, want 1 failed", m)
	}
}

// TestConfigValidation: empty and duplicate backend lists refuse.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no backends accepted")
	}
	if _, err := New(Config{Backends: []string{"a:1", "a:1"}}); err == nil {
		t.Error("duplicate backends accepted")
	}
	if _, err := New(Config{Backends: []string{""}}); err == nil {
		t.Error("empty backend address accepted")
	}
}

// TestHangingDialDoesNotStallOtherBackends: while one backend's dial
// hangs (a partitioned host, up to DialTimeout), jobs still resolve on
// the other backend — the dialing backend holds none — and Metrics still
// answers. The hung backend's idle dispatchers wake on every admission
// and ask their link whether it is up under the coordinator lock; that
// read used to wait for the dialing dispatcher's mutex, stalling every
// Do for the length of the dial.
func TestHangingDialDoesNotStallOtherBackends(t *testing.T) {
	live, liveAddr := startWorker(t, WorkerConfig{Slice: 1024})
	const hung = "hung.invalid:1"
	entered, release := make(chan struct{}), make(chan struct{})
	var enter, unhang sync.Once
	c := start(Config{Backends: []string{hung, liveAddr}, RetryBackoff: time.Millisecond},
		func(c *Coordinator, addr string) link {
			dial := func() (net.Conn, error) { return net.DialTimeout("tcp", addr, c.cfg.DialTimeout) }
			if addr == hung {
				dial = func() (net.Conn, error) {
					enter.Do(func() { close(entered) })
					<-release
					return nil, errors.New("dial timed out")
				}
			}
			return &remote{addr: addr, dial: dial, onNote: c.handleNote}
		})
	defer c.Close()
	defer unhang.Do(func() { close(release) }) // before Close, which waits for the dial

	image := imageOf(t, quickSource)
	const jobs = 9
	for i := 0; i < jobs; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := c.Do(context.Background(), &Job{ID: fmt.Sprintf("job-%d", i), Key: fmt.Sprintf("key-%d", i),
				Image: image, Cores: 1, MaxCycles: 1_000_000})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("job %d stalled behind the other backend's dial", i)
		}
		if i == 0 {
			<-entered // the first admission woke the hung backend into its dial
		}
	}
	if m := c.Metrics(); m.BackendsUp != 1 || m.Completed != jobs || m.Retries != 0 {
		t.Errorf("metrics during the hung dial: %+v, want 1 backend up, %d completed, no retry", m, jobs)
	}
	if n := live.Metrics().Completed; n != jobs {
		t.Errorf("the live worker completed %d jobs, want all %d", n, jobs)
	}
}

// TestImageBytesBoundsTheImage: the buffer a remote job's image is
// written into is sized once, so the bound must hold for every shape
// of program — records, many symbols, long names, counts of ten digits'
// worth of words in a segment header.
func TestImageBytesBoundsTheImage(t *testing.T) {
	syms := map[string]uint32{}
	for i := range 100 {
		syms[fmt.Sprintf("%s%d", strings.Repeat("s", i), i)] = uint32(i) << 20
	}
	progs := map[string]*asm.Program{
		"empty":   {},
		"symbols": {Entry: 0xffffffff, TextBase: 0xfffffff0, Text: make([]uint32, 9), Symbols: syms},
		"segments": {Text: make([]uint32, 1), Segments: []asm.Segment{
			{Addr: 0x80000000, Words: make([]uint32, 1<<20)}, {Addr: 0xfffffffc}, {Addr: 0x80000004, Words: make([]uint32, 7)}}},
	}
	for name, p := range progs {
		var img bytes.Buffer
		if err := p.WriteImage(&img); err != nil {
			t.Fatal(err)
		}
		if n, bound := img.Len(), imageBytes(p); n > bound {
			t.Errorf("%s: image of %d bytes, imageBytes bounds it at %d", name, n, bound)
		}
	}
}
