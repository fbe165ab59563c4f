// Package runner fans independent simulations across host CPUs.
//
// The simulated LBP machine is cycle-deterministic by construction
// (DESIGN.md §6), so host parallelism between whole simulations is
// always safe — and it is the only host parallelism the repo uses: one
// machine steps on one goroutine. This package is a fixed-size worker
// pool that maps a job function over an index space and returns the
// results in index order, so a parallel sweep is observably identical
// to the sequential loop it replaces.
//
// Determinism contract for job functions:
//
//   - fn(i) must build its own lbp.Machine (and trace.Recorder, devices,
//     ...) — workers share no mutable state;
//   - fn(i) must depend only on i and on inputs that are read-only for the
//     duration of the call (e.g. a pre-assembled *asm.Program);
//   - results are placed at index i of the output slice, so the caller
//     observes the same ordering regardless of worker count or host
//     scheduling.
//
// Equivalence of parallel and sequential execution is asserted by the
// event-trace digest tests in internal/figures (extending experiment E4).
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count request: n <= 0 selects all host CPUs
// (GOMAXPROCS), anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(0) .. fn(n-1) on up to `workers` goroutines and returns the
// results in index order. workers <= 0 uses all host CPUs; workers == 1 (or
// n <= 1) runs inline on the calling goroutine with no goroutines spawned.
//
// All n jobs are always executed — there is no early cancellation — and if
// any fail, the error of the lowest failing index is returned (the same
// error a sequential loop would have stopped at, since job errors are
// themselves deterministic). On error the result slice is nil.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ForEach is Map without per-job results: it runs fn(0) .. fn(n-1) across
// the pool and returns the lowest-index error, if any.
func ForEach(workers, n int, fn func(i int) error) error {
	_, err := Map(workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
