package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of an ascending slice by
// linear interpolation between the two nearest order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives — the same spread the contract's
// driver computes over runs, here computed over the batches of one run.
func iqrShare(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := sortedCopy(v)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// hostDelta is the allocator and collector work between two points.
type hostDelta struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause, wall       time.Duration
}

func (d *hostDelta) add(o hostDelta) {
	d.allocBytes += o.allocBytes
	d.mallocs += o.mallocs
	d.gcCycles += o.gcCycles
	d.gcPause += o.gcPause
	d.wall += o.wall
}

type hostMark struct {
	m     runtime.MemStats
	start time.Time
}

func markHost() *hostMark {
	h := &hostMark{start: time.Now()}
	runtime.ReadMemStats(&h.m)
	return h
}

func (h *hostMark) since() hostDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return hostDelta{
		allocBytes: now.TotalAlloc - h.m.TotalAlloc,
		mallocs:    now.Mallocs - h.m.Mallocs,
		gcCycles:   now.NumGC - h.m.NumGC,
		gcPause:    time.Duration(now.PauseTotalNs - h.m.PauseTotalNs),
		wall:       time.Since(h.start),
	}
}

// metrics turns a delta over ops operations into the host.* rows. The
// collector's pauses are a share of the wall time between the marks: a
// run without a collection reads exactly 0, which the contract accepts
// of a ratio and not of a time.
func (d hostDelta) metrics(ops int, out metricSet) {
	if ops < 1 {
		ops = 1
	}
	out.put("host.alloc_bytes_per_op", float64(d.allocBytes)/float64(ops), "B")
	out.put("host.mallocs_per_op", float64(d.mallocs)/float64(ops), "count")
	out.put("host.gc_cycles", float64(d.gcCycles), "count")
	out.put("host.gc_pause_share", float64(d.gcPause)/float64(d.wall), "ratio")
}
