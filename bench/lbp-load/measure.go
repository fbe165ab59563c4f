package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupTimes is the set-up time of a run: the set-up runs
// setupRepeats times (torn down in between, the last one kept) and the
// median is reported, so one slow start does not decide the metric.
type setupTimes struct{ median, spread float64 }

const setupRepeats = 3

func timeSetups(n int, setup func() error, teardown func()) (setupTimes, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown()
		}
		// Collect the previous set-up's garbage now, so that it neither
		// slows this one nor decides the process's peak RSS.
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return setupTimes{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	// The first set-up of a process is cold (decode-image LRU, page
	// cache) and always the slowest, so the spread is the distance from
	// the fastest set-up to the median one, not the whole range.
	s := sortedCopy(secs)
	med := quantile(s, 0.5)
	return setupTimes{median: med, spread: (med - s[0]) / med}, nil
}

// batchStats accumulates what the batches (serving) or passes
// (simulation) of one run measured.
type batchStats struct {
	cyclesPerS, jobsPerS, p50s []float64
	lat                        []time.Duration
}

// add records one batch: cycles simulated in cycleTime, and jobs whose
// latencies are lat completed in wall.
func (b *batchStats) add(cycles uint64, cycleTime, wall time.Duration, lat []time.Duration) {
	b.lat = append(b.lat, lat...)
	b.cyclesPerS = append(b.cyclesPerS, float64(cycles)/cycleTime.Seconds())
	b.jobsPerS = append(b.jobsPerS, float64(len(lat))/wall.Seconds())
	b.p50s = append(b.p50s, median(msAll(lat)))
}

// putTail reports the latency tail. It is not gated: on this host the
// ten-seed spread of p95 reached 14 % outside any noise episode, which
// the issue's ceiling of 0.20 for its bound cannot hold, so by the
// issue's own rule p95 lives in the per-layer list.
func putTail(m metricSet, sortedMs []float64) {
	m.put("client.latency_p95_ms", quantile(sortedMs, 0.95), "ms")
	m.put("client.latency_p99_ms", quantile(sortedMs, 0.99), "ms")
}

// report fills the end-to-end metrics: rates are medians over batches,
// latencies are over all counted jobs, and each comes with its spread
// over batches. The allocator deltas and p99 ride along ungated.
func (b *batchStats) report(r *runResult, setup setupTimes, host hostDelta) {
	r.Batches = len(b.jobsPerS)
	if r.Batches == 0 {
		return
	}
	all := sortedCopy(msAll(b.lat))
	for _, m := range []struct {
		name   string
		value  float64
		unit   string
		spread float64
	}{
		{"setup_s", setup.median, "s", setup.spread},
		{"sim_cycles_per_s", median(b.cyclesPerS), "1/s", iqrShare(b.cyclesPerS)},
		{"jobs_per_s", median(b.jobsPerS), "1/s", iqrShare(b.jobsPerS)},
		{"job_latency_p50_ms", quantile(all, 0.5), "ms", iqrShare(b.p50s)},
	} {
		r.Metrics.put(m.name, m.value, m.unit)
		r.Spread[m.name] = m.spread
	}
	r.Series = map[string][]float64{"sim_cycles_per_s": b.cyclesPerS, "jobs_per_s": b.jobsPerS, "job_latency_p50_ms": b.p50s}
	host.metrics(len(all), r.Extra)
	putTail(r.Extra, all)
	r.Extra.put("client.latency_samples", float64(len(all)), "count")
}
