// lbp-serve is the batching simulation service: a long-running
// HTTP/JSON daemon that accepts simulation jobs, answers repeats from a
// result cache, and runs the rest through one job path — a bounded
// coordinator queue in front of an executor on warm pooled machines,
// in this process by default, in worker processes with -backends.
//
// Usage:
//
//	lbp-serve [-addr HOST:PORT] [-workers N] [-queue N] [-deadline D]
//	          [-maxcycles N] [-slice N] [-ckptdir DIR] [-drain D]
//	          [-pool-per-key N] [-pool-total N] [-addrfile FILE]
//	          [-cachedir DIR] [-cachemax BYTES]
//	lbp-serve -worker HOST:PORT [-slice N] [-pool-per-key N]
//	          [-pool-total N] [-addrfile FILE]
//	lbp-serve -backends A,B,C [-per-backend N] [-ckpt-every N]
//	          [-retries N] [...front-end flags]
//
// Endpoints:
//
//	POST /jobs     run one simulation job (JSON in, JSON out)
//	GET  /healthz  liveness ("ok", or 503 while draining)
//	GET  /metrics  Prometheus text format counters
//
// A job carries MiniC or assembly source (or a serialized image),
// machine geometry and observer options; the response embeds the
// deterministic digest and perf snapshot, so any client can verify the
// result bit-for-bit against a local lbp-run of the same program.
//
// Every run is deterministic, so results are pure functions of the
// canonical job. With -cachedir set, the server keeps a
// content-addressed result cache on disk: an append-only log of a few
// segment files, bounded to -cachemax bytes, oldest segment deleted
// first. A repeat job is answered from the cache without simulating a
// cycle, byte-identical in every deterministic field and marked
// "cached": true. A cache directory has one writer: a second lbp-serve
// pointed at a directory a live one holds exits 1 saying so.
//
// Admission is bounded: when the queue is full the server answers 429
// with Retry-After instead of queueing without limit. On SIGINT or
// SIGTERM the server stops admitting (503), drains queued and in-flight
// jobs for up to -drain, then preempts what is left (503 "preempted"):
// a job running in this process pauses at its next slice boundary and
// is checkpointed to -ckptdir (resume offline with lbp-run -resume), a
// job on a remote worker is abandoned.
//
// -addr :0 picks an ephemeral port; -addrfile writes the bound address
// to a file once listening, for scripts that need to find the port.
//
// Distributed serving splits the binary into two roles. `-worker
// HOST:PORT` runs a headless worker: the same executor behind a
// JSON-RPC server, no HTTP. `-backends A,B,C` points the HTTP front
// end's coordinator at the named workers instead of its in-process
// executor: jobs that miss the result cache wait in one queue (-queue
// per backend) and start, oldest first, on whichever connected worker
// has a free slot — any worker gives the same answer, so placement is
// free. A worker that cannot be reached takes no work and is re-dialed
// in the background until it is back; a job whose worker dies mid-run
// returns to the front of the queue and resumes from its last streamed
// checkpoint on another worker, bit-identical to an uninterrupted run.
// The HTTP surface — schema, status codes, metric names — does not
// depend on where jobs run.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/dispatch"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8377", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addrfile", "", "write the bound address to `file` once listening")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth, per backend with -backends (overflow answers 429)")
	deadline := flag.Duration("deadline", 60*time.Second, "default and maximum per-job wall-clock run time")
	maxCycles := flag.Uint64("maxcycles", 1_000_000_000, "largest acceptable per-job cycle budget")
	slice := flag.Uint64("slice", 1<<20, "cycles per Advance slice between cancellation checks")
	ckptDir := flag.String("ckptdir", "", "directory for checkpoints of jobs preempted by shutdown")
	drain := flag.Duration("drain", 30*time.Second, "shutdown grace before in-flight jobs are preempted")
	poolPerKey := flag.Int("pool-per-key", 0, "warm machines kept per configuration (0 = default)")
	poolTotal := flag.Int("pool-total", 0, "warm machines kept in total (0 = default)")
	cacheDir := flag.String("cachedir", "", "content-addressed result cache directory (empty = caching off)")
	cacheMax := flag.Int64("cachemax", 0, "result cache size bound in bytes (0 = 256 MiB)")
	workerAddr := flag.String("worker", "", "run as a headless worker listening on `host:port` (no HTTP)")
	backends := flag.String("backends", "", "run as a coordinator over comma-separated worker `addresses`")
	perBackend := flag.Int("per-backend", 0, "concurrent dispatches per backend (0 = 4)")
	ckptEvery := flag.Int64("ckpt-every", 0, "cycles between streamed migration checkpoints (0 = 4M, negative = never)")
	retries := flag.Int("retries", 0, "dispatch attempts before a job fails (0 = one per backend)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: lbp-serve [flags] (it takes no arguments)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *workerAddr != "" && *backends != "" {
		fmt.Fprintln(os.Stderr, "lbp-serve: -worker and -backends are mutually exclusive")
		os.Exit(2)
	}
	if *workerAddr != "" {
		runWorker(*workerAddr, *addrFile, *slice, *poolPerKey, *poolTotal)
		return
	}
	if *queue < 1 {
		fmt.Fprintf(os.Stderr, "lbp-serve: -queue %d must be positive\n", *queue)
		os.Exit(2)
	}
	if *slice == 0 {
		fmt.Fprintln(os.Stderr, "lbp-serve: -slice must be positive")
		os.Exit(2)
	}
	if *cacheMax < 0 {
		fmt.Fprintf(os.Stderr, "lbp-serve: -cachemax %d must not be negative\n", *cacheMax)
		os.Exit(2)
	}
	if *cacheMax > 0 && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "lbp-serve: -cachemax needs -cachedir")
		os.Exit(2)
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fatal(err)
		}
	}
	var store *cache.Store
	if *cacheDir != "" {
		var err error
		if store, err = cache.Open(*cacheDir, *cacheMax); err != nil {
			fatal(err)
		}
		defer store.Close() // after the drain below: releases the directory's lock
	}

	cfg := serve.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		MaxCyclesCap:  *maxCycles,
		Deadline:      *deadline,
		Slice:         *slice,
		CheckpointDir: *ckptDir,
		PoolPerKey:    *poolPerKey,
		PoolTotal:     *poolTotal,
		Cache:         store,
	}
	if *backends != "" {
		coord, err := dispatch.New(dispatch.Config{
			Backends:        strings.Split(*backends, ","),
			PerBackend:      *perBackend,
			QueueDepth:      *queue,
			Attempts:        *retries,
			CheckpointEvery: *ckptEvery,
		})
		if err != nil {
			fatal(err)
		}
		defer coord.Close()
		cfg.Dispatcher = coord
	}
	srv := serve.New(cfg)
	ln := listen(*addr, *addrFile, "listening on http://")
	httpSrv := &http.Server{Handler: srv.Handler()}
	sig := serveUntilSignal(func() error { return httpSrv.Serve(ln) })
	fmt.Printf("lbp-serve: %s: draining (grace %s)\n", sig, *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "lbp-serve:", err)
	}
	cancel()
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "lbp-serve:", err)
	}
	fmt.Println("lbp-serve: drained, bye")
}

// runWorker is the -worker mode: a headless JSON-RPC job executor on
// its own warm pool. It serves until SIGINT/SIGTERM, then closes —
// running jobs cancel at their next slice boundary and their machines
// flow back through the usual accounting before exit.
func runWorker(addr, addrFile string, slice uint64, poolPerKey, poolTotal int) {
	w := dispatch.NewWorker(dispatch.WorkerConfig{
		Slice:      slice,
		PoolPerKey: poolPerKey,
		PoolTotal:  poolTotal,
	})
	ln := listen(addr, addrFile, "worker listening on ")
	sig := serveUntilSignal(func() error { return w.Serve(ln) })
	fmt.Printf("lbp-serve: worker: %s: closing\n", sig)
	if err := w.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "lbp-serve:", err)
	}
	fmt.Println("lbp-serve: worker: bye")
}

// listen binds addr, announces it after banner and, for scripts that
// need to find an ephemeral port, writes it to addrFile.
func listen(addr, addrFile, banner string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	fmt.Printf("lbp-serve: %s%s\n", banner, bound)
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	return ln
}

// serveUntilSignal runs serve in the background and returns the
// SIGINT/SIGTERM that ends it; serve failing first is fatal.
func serveUntilSignal(serve func() error) os.Signal {
	errc := make(chan error, 1)
	go func() { errc <- serve() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		return sig
	case err := <-errc:
		fatal(err)
		return nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbp-serve:", err)
	os.Exit(1)
}
