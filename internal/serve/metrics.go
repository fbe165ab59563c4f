package serve

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/dispatch"
)

// metrics holds the edge's own counters exported at /metrics (queue,
// pool and dispatch series are read from the dispatcher and the
// executor). All fields are atomics: handlers touch them without a
// lock, and the exposition reads a consistent-enough snapshot.
type metrics struct {
	accepted  atomic.Uint64 // jobs the dispatcher took (counted when they resolve)
	rejected  atomic.Uint64 // jobs turned away with 429 (queue full)
	completed atomic.Uint64 // runs that finished (StatusOK)
	failed    atomic.Uint64 // fault/budget/deadline/cancel/dispatch-failure outcomes
	preempted atomic.Uint64 // jobs stopped by the shutdown grace expiring

	cacheHits   atomic.Uint64 // jobs answered from the result cache
	cacheMisses atomic.Uint64 // cache lookups that had to simulate
	frontHits   atomic.Uint64 // requests keyed by the memo, without decoding or compiling

	simCycles atomic.Uint64 // simulated cycles of completed jobs
	runNanos  atomic.Uint64 // host wall nanoseconds of their backend calls

	// lastJobCPS is the simulated-cycles-per-second of the most recently
	// completed job (math.Float64bits encoded), the per-job throughput
	// gauge next to the lifetime aggregate.
	lastJobCPS atomic.Uint64
}

// promWriter emits the Prometheus text exposition format (hand-rolled:
// the repo takes no dependencies).
type promWriter struct{ w io.Writer }

func (p promWriter) series(kind, name, help string, v any) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, kind, name, v)
}

func (p promWriter) counter(name, help string, v uint64) { p.series("counter", name, help, v) }
func (p promWriter) gauge(name, help string, v float64)  { p.series("gauge", name, help, v) }

// writePrometheus emits every series, the same set whichever
// dispatcher is configured: the edge's own counters, the result
// cache's, the dispatcher's, and the in-process executor's pool (all
// zero when jobs run on remote workers, whose pools are theirs).
func (m *metrics) writePrometheus(w io.Writer, exec *dispatch.Executor, cs cache.Stats, dm dispatch.Metrics) {
	p := promWriter{w}
	p.counter("lbp_serve_jobs_accepted_total", "Jobs the dispatcher accepted.", m.accepted.Load())
	p.counter("lbp_serve_jobs_rejected_total", "Jobs rejected with 429 because the queue was full.", m.rejected.Load())
	p.counter("lbp_serve_jobs_completed_total", "Jobs whose simulation ran to completion.", m.completed.Load())
	p.counter("lbp_serve_jobs_failed_total", "Jobs that ended in a fault, budget, deadline, cancellation or dispatch failure.", m.failed.Load())
	p.counter("lbp_serve_jobs_preempted_total", "Jobs stopped by the shutdown grace expiring.", m.preempted.Load())
	p.counter("lbp_serve_cache_hits_total", "Jobs answered from the content-addressed result cache.", m.cacheHits.Load())
	p.counter("lbp_serve_cache_misses_total", "Cache lookups that fell through to a simulation.", m.cacheMisses.Load())
	p.counter("lbp_serve_front_hits_total", "Requests whose cache key came from the request memo, without decoding or compiling.", m.frontHits.Load())
	p.gauge("lbp_serve_cache_bytes", "Bytes of result-cache log on disk, the quantity -cachemax bounds.", float64(cs.Bytes))
	p.gauge("lbp_serve_cache_entries", "Payloads in the result cache.", float64(cs.Entries))
	p.counter("lbp_serve_cache_evictions_total", "Result-cache entries evicted by the size bound.", cs.Evictions)
	p.gauge("lbp_serve_queue_depth", "Jobs admitted but not yet running.", float64(dm.Queued))
	p.gauge("lbp_serve_jobs_inflight", "Jobs currently running.", float64(dm.Running))
	pool, em := exec.PoolStats(), exec.Metrics()
	p.counter("lbp_serve_pool_hits_total", "Warm-machine pool hits.", pool.Hits)
	p.counter("lbp_serve_pool_misses_total", "Warm-machine pool misses (fresh builds).", pool.Misses)
	p.counter("lbp_serve_pool_evictions_total", "Idle sessions evicted by the pool capacity bounds.", pool.Evictions)
	p.counter("lbp_serve_pool_reset_failures_total", "Warm machines dropped because their checkout Reset failed.", pool.ResetFailures)
	p.counter("lbp_serve_pool_discarded_total", "Checked-out sessions not returned to the pool (preempted by shutdown).", em.PoolDiscarded)
	p.gauge("lbp_serve_pool_idle", "Idle warm machines in the pool.", float64(exec.PoolIdle()))
	p.counter("lbp_serve_sim_cycles_total", "Simulated cycles of completed jobs.", m.simCycles.Load())
	cps := 0.0
	if ns := m.runNanos.Load(); ns > 0 {
		cps = float64(m.simCycles.Load()) / (float64(ns) / 1e9)
	}
	p.gauge("lbp_serve_sim_cycles_per_second", "Lifetime simulated cycles per host second of run time.", cps)
	p.gauge("lbp_serve_last_job_sim_cycles_per_second", "Simulated cycles per host second of the most recently completed job.",
		math.Float64frombits(m.lastJobCPS.Load()))
	p.counter("lbp_serve_dispatch_jobs_total", "Jobs admitted to the dispatcher.", dm.Dispatched)
	p.counter("lbp_serve_dispatch_completed_total", "Dispatched jobs answered with a backend result.", dm.Completed)
	p.counter("lbp_serve_dispatch_failed_total", "Dispatched jobs that exhausted their attempts or were abandoned.", dm.Failed)
	p.counter("lbp_serve_dispatch_retries_total", "Re-dispatches after a backend transport death.", dm.Retries)
	p.counter("lbp_serve_dispatch_migrations_total", "Retries that resumed from a streamed checkpoint.", dm.Migrations)
	p.counter("lbp_serve_dispatch_checkpoints_total", "Migration checkpoints streamed by workers.", dm.Checkpoints)
	p.gauge("lbp_serve_dispatch_backends_up", "Backends reachable right now.", float64(dm.BackendsUp))
}
