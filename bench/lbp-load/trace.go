package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/dispatch"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The traced run. It replays a seeded sample of requests on one
// goroutine, calling the exported functions in the order
// serve.handleJobs -> runJob does, with a span around each call; then
// it sends the same requests to the live server. Around that it runs
// every simulation program once and a set of micro-probes, so that
// each layer of the repository gets a number on every traced run of
// every workload. The workload argument decides whose request stream
// is replayed (a sim_* workload replays a smaller serve_cold sample)
// and whose operations the host.*, client.* and lbp.sim_* rows count.
const (
	replaySample    = 400 // requests replayed for a serving workload
	replaySampleSim = 100 // ... and for a simulation workload
	dispatchJobs    = 100 // prebuilt jobs sent through Coordinator.Do
	probeReps       = 200 // repetitions of a sub-millisecond probe
	probeRepsBig    = 5   // repetitions of a probe on the data-heavy image
	ckptCycles      = 1000
)

// span is one timed call into a layer. Spans of one request share its
// Request; Parent is the span that caused this one (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request string `json:"request"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) start(parent int, name, request string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Request: request,
		StartNs: int64(time.Since(t.origin))})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.origin))
	return time.Duration(s.EndNs - s.StartNs)
}

// timed runs f inside a span and returns how long it took.
func (t *tracer) timed(parent int, name, request string, f func()) time.Duration {
	id := t.start(parent, name, request)
	f()
	return t.end(id)
}

// selfTimes returns, per span name, each span's self time in ms: its
// duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string][]float64 {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.EndNs - s.StartNs
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs-children[s.ID])/1e6)
	}
	return out
}

// repeat times f n times and returns the median in ms.
func repeat(n int, f func() error) (float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return median(out), nil
}

func mib(n int) float64 { return float64(n) / (1 << 20) }

func runTraced(o runOpts) (*runResult, error) {
	r := o.newResult()
	tr := newTracer()
	if err := traceSim(o, r, tr); err != nil {
		return nil, fmt.Errorf("simulation probes: %w", err)
	}
	if err := traceServe(o, r, tr); err != nil {
		return nil, fmt.Errorf("serving replay: %w", err)
	}
	if err := traceProbes(o, r); err != nil {
		return nil, fmt.Errorf("micro-probes: %w", err)
	}
	if err := writeJSON(filepath.Join(o.outDir, "trace_"+o.workload+".json"), tr.spans); err != nil {
		return nil, err
	}
	return r, nil
}

// traceSim runs every simulation program once (digest on, one host
// worker) and derives the lbp.*, trace.* and perf.* rows.
func traceSim(o runOpts, r *runResult, tr *tracer) error {
	matmul, err := buildMatmulProgs()
	if err != nil {
		return err
	}
	scale, err := buildScaleProgs()
	if err != nil {
		return err
	}
	pool := new(sim.Pool)
	var (
		matmulRun time.Duration
		wall1024  time.Duration
		lat       []float64
		total     simTotals
		host      hostDelta
		seen      = map[string]simPin{}
	)
	for _, p := range append(append([]*simProg(nil), matmul...), scale...) {
		mark := markHost()
		id := tr.start(0, "sim.job", p.name) // checkout (a cold build here), run, verification, return
		j, err := runSimJob(pool, p, true)
		tr.end(id)
		if err == nil {
			err = checkSimJob(o, p, j, seen)
		}
		if err != nil {
			return err
		}
		if p.workload == o.workload {
			r.Attempted++
			r.OK++
			host.add(mark.since())
			lat = append(lat, ms(j.total))
			total.add(j.res.Stats.Cycles, j.res.Stats.Retired, &j.res.Mem)
		}
		ns := float64(j.run.Nanoseconds())
		r.Metrics.put("lbp.ns_per_cycle_"+p.name, ns/float64(j.res.Stats.Cycles), "ns")
		r.Metrics.put("lbp.ns_per_retired_"+p.name, ns/float64(j.res.Stats.Retired), "ns")
		r.Metrics.put("lbp.ns_per_core_cycle_"+p.name, ns/float64(j.res.Stats.Cycles*uint64(p.cores)), "ns")
		switch p.name {
		case "256c", "1024c":
			r.Metrics.put("lbp.fastforward_share_"+p.name, float64(j.res.Stats.FastForwarded)/float64(j.res.Stats.Cycles), "ratio")
			live, err := liveHartCycles(o, p)
			if err != nil {
				return err
			}
			r.Metrics.put("lbp.ns_per_live_hart_cycle_"+p.name, ns/float64(live), "ns")
			if p.name == "1024c" {
				wall1024 = j.run
			}
		}
		if p.workload == wSimMatmul {
			matmulRun += j.run
		}
	}
	if isSim(o.workload) {
		host.metrics(len(lat), r.Metrics)
		putTail(r.Metrics, sortedCopy(lat))
		total.put(r.Metrics)
	}

	// Observer overheads on the Figure-20 programs: digest off, then
	// Profile on, against the digest-on runs above.
	variant := func(change func(*sim.Spec)) (time.Duration, error) {
		var total time.Duration
		for _, p := range matmul {
			spec := p.spec
			change(&spec)
			sess, err := sim.New(spec)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			if _, err := sess.Run(); err != nil {
				return 0, err
			}
			total += time.Since(start)
		}
		return total, nil
	}
	digestOff, err := variant(func(s *sim.Spec) { s.Trace = sim.TraceSpec{} })
	if err != nil {
		return err
	}
	profiled, err := variant(func(s *sim.Spec) { s.Profile = true })
	if err != nil {
		return err
	}
	r.Metrics.put("trace.digest_overhead_share", float64(matmulRun-digestOff)/float64(matmulRun), "ratio")
	r.Metrics.put("perf.profile_overhead_share", float64(profiled-matmulRun)/float64(matmulRun), "ratio")

	// The sharded stepper at 1024 cores: cycles/s at SimWorkers = nproc
	// over cycles/s at 1. End-to-end runs always use 1.
	big := scale[len(scale)-1]
	spec := big.spec
	spec.SimWorkers = runtime.NumCPU()
	sess, err := sim.New(spec)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := sess.Run(); err != nil {
		return err
	}
	r.Metrics.put("lbp.sharded_speedup_1024c", float64(wall1024)/float64(time.Since(start)), "ratio")
	r.Extra.put("lbp.sharded_workers", float64(spec.SimWorkers), "count")

	// Checkpoint and restore after 1000 cycles, 16 and 1024 cores.
	for _, p := range []*simProg{matmul[0], big} {
		sess, err := sim.New(p.spec)
		if err != nil {
			return err
		}
		if _, err := sess.Advance(ckptCycles); err != nil {
			return err
		}
		var cp []byte
		save, err := repeat(1, func() (err error) { cp, err = sess.Checkpoint(); return err })
		if err != nil {
			return err
		}
		load, err := repeat(1, func() error {
			_, err := sim.Resume(cp, sim.ResumeSpec{MaxCycles: p.spec.MaxCycles})
			return err
		})
		if err != nil {
			return err
		}
		suffix := fmt.Sprintf("_%dc", p.cores)
		r.Metrics.put("lbp.checkpoint_ms"+suffix, save, "ms")
		r.Metrics.put("lbp.restore_ms"+suffix, load, "ms")
		if p == big {
			r.Metrics.put("lbp.checkpoint_bytes"+suffix, float64(len(cp)), "B")
		}
	}

	// Machine construction and warm checkout, by machine size.
	small, err := fig19Spec()
	if err != nil {
		return err
	}
	for _, c := range []struct {
		suffix   string
		spec     sim.Spec
		reps     int
		checkNew bool
	}{{"_4c", small, 20, true}, {"_16c", matmul[0].spec, 20, false}, {"_1024c", big.spec, 3, true}} {
		if c.checkNew {
			v, err := repeat(c.reps, func() error { _, err := sim.New(c.spec); return err })
			if err != nil {
				return err
			}
			r.Metrics.put("sim.new_ms"+c.suffix, v, "ms")
		}
		warm := new(sim.Pool)
		sess, err := warm.Get(c.spec)
		if err != nil {
			return err
		}
		warm.Put(sess)
		v, err := repeat(c.reps, func() error {
			sess, _, err := warm.GetWarm(c.spec)
			if err == nil {
				warm.Put(sess)
			}
			return err
		})
		if err != nil {
			return err
		}
		r.Metrics.put("sim.pool_getwarm_ms"+c.suffix, v, "ms")
	}
	return nil
}

// simTotals sums the exact simulated counts of the workload's traced
// operations.
type simTotals struct{ cycles, retired, remote, linkWait uint64 }

func (t *simTotals) add(cycles, retired uint64, m *mem.Stats) {
	t.cycles += cycles
	t.retired += retired
	if m != nil {
		t.remote += m.SharedRemote
		t.linkWait += m.TotalWaitCycles
	}
}

func (t simTotals) put(m metricSet) {
	m.put("lbp.sim_cycles", float64(t.cycles), "count")
	m.put("lbp.sim_retired", float64(t.retired), "count")
	ipc := 0.0
	if t.cycles > 0 {
		ipc = float64(t.retired) / float64(t.cycles)
	}
	m.put("lbp.sim_ipc", ipc, "1/cycle")
	m.put("mem.remote_accesses", float64(t.remote), "count")
	m.put("mem.link_wait_cycles", float64(t.linkWait), "count")
}

// fig19Spec is a 4-core machine with the Figure-19 base program: the
// small geometry serve_cold's jobs run on.
func fig19Spec() (sim.Spec, error) {
	src, err := workloads.MatmulSource(workloads.Base, 16)
	if err != nil {
		return sim.Spec{}, err
	}
	jr := serve.JobRequest{Source: src, Cores: 4, Digest: true}
	prog, err := compileRequest(&jr)
	if err != nil {
		return sim.Spec{}, err
	}
	return specOf(&jr, prog), nil
}

// liveHartCycles is hart-cycles minus "hart-free" stalls: the cycles
// in which a hart actually held a thread. The count is exact, so the
// pinned value serves; without pins it is measured by a Profile run.
func liveHartCycles(o runOpts, p *simProg) (uint64, error) {
	if pin, ok := o.simPin(p.name); ok && pin.LiveHartCycles != 0 {
		return pin.LiveHartCycles, nil
	}
	return profileLiveHartCycles(p)
}

func profileLiveHartCycles(p *simProg) (uint64, error) {
	spec := p.spec
	spec.Profile = true
	sess, err := sim.New(spec)
	if err != nil {
		return 0, err
	}
	if _, err := sess.Run(); err != nil {
		return 0, err
	}
	snap := sess.PerfSnapshot()
	return snap.HartCycles - snap.StallCycles(perf.StallHartFree), nil
}

// pinLiveHartCycles fills the Profile-run counts of -repin.
func pinLiveHartCycles(p *pins, stdout io.Writer) error {
	scale, err := buildScaleProgs()
	if err != nil {
		return err
	}
	for _, prog := range scale {
		if prog.name == "64c" {
			continue
		}
		fmt.Fprintf(stdout, "profiling %s for live hart cycles (slow)...\n", prog.name)
		live, err := profileLiveHartCycles(prog)
		if err != nil {
			return err
		}
		pin := p.Sim[prog.name]
		pin.LiveHartCycles = live
		p.Sim[prog.name] = pin
	}
	return nil
}

// replayer calls the layers in handleJobs/runJob order on the
// benchmark's own cache store and pool.
type replayer struct {
	tr    *tracer
	store *cache.Store
	pool  sim.Pool
	coord *dispatch.Coordinator // non-nil: a miss goes to the fleet
}

// replay replays one request and returns the sum of its child spans.
func (p *replayer) replay(req *request) (children time.Duration, err error) {
	name := fmt.Sprintf("%s#%d", req.class, req.index)
	root := p.tr.start(0, "replay", name)
	defer p.tr.end(root)
	step := func(span string, f func()) { children += p.tr.timed(root, span, name, f) }

	var jr serve.JobRequest
	step("serve.decode", func() { err = json.Unmarshal(req.body, &jr) })
	if err != nil {
		return children, err
	}
	var prog *asm.Program
	switch {
	case len(jr.Image) > 0:
		step("asm.readimage", func() { prog, err = asm.ReadImage(bytes.NewReader(jr.Image)) })
	case jr.Lang == "s":
		step("asm.assemble", func() { prog, err = asm.Assemble(jr.Source, asm.Options{}) })
	default:
		var text string
		step("cc.build", func() { text, err = cc.BuildProgram(jr.Source, ccOptions(&jr)) })
		if err == nil {
			step("asm.assemble", func() { prog, err = asm.Assemble(text, asm.Options{}) })
		}
	}
	if err != nil {
		return children, err
	}
	spec := specOf(&jr, prog)
	var key string
	step("sim.cachekey", func() { key, err = sim.CacheKey(spec) })
	if err != nil {
		return children, err
	}
	var payload []byte
	var hit bool
	step("cache.get", func() { payload, hit = p.store.Get(key) })
	var res serve.JobResult
	if hit {
		step("serve.payload_decode", func() { err = json.Unmarshal(payload, &res) })
		return children, err
	}
	if p.coord != nil {
		var img bytes.Buffer
		step("asm.writeimage", func() { err = prog.WriteImage(&img) })
		if err != nil {
			return children, err
		}
		job := dispatchJob(name, key, img.Bytes(), &spec)
		var dres *dispatch.Result
		step("dispatch.do", func() { dres, err = p.coord.Do(context.Background(), job) })
		if err != nil {
			return children, err
		}
		res = serve.JobResult{Status: dres.Status, Halt: dres.Halt, Cycles: dres.Cycles, Retired: dres.Retired,
			IPC: dres.IPC, Digest: dres.Digest, Events: dres.Events, Mem: dres.Mem}
	} else {
		var sess *sim.Session
		step("sim.pool_getwarm", func() { sess, _, err = p.pool.GetWarm(spec) })
		if err != nil {
			return children, err
		}
		step("lbp.run", func() {
			if lres, rerr := sess.Run(); rerr != nil {
				err = rerr
			} else {
				mem := lres.Mem
				res = serve.JobResult{Status: serve.StatusOK, Halt: lres.Halt, Cycles: lres.Stats.Cycles,
					Retired: lres.Stats.Retired, IPC: lres.Stats.IPC(), Mem: &mem}
				if rec := sess.Recorder(); rec != nil {
					res.Digest, res.Events = rec.Digest(), rec.Count()
				}
			}
		})
		p.pool.Put(sess)
		if err != nil {
			return children, err
		}
	}
	step("cache.put", func() {
		var b []byte
		if b, err = json.Marshal(&res); err == nil {
			err = p.store.Put(key, b)
		}
	})
	return children, err
}

// dispatchJob is the wire job serve.runRemote builds for a cache miss.
func dispatchJob(id, key string, image []byte, spec *sim.Spec) *dispatch.Job {
	return &dispatch.Job{ID: id, Key: key, Image: image, Cores: spec.Cores, BankBytes: spec.SharedBankBytes,
		MaxCycles: spec.MaxCycles, Digest: spec.Trace.Digest, Ring: spec.Trace.Ring, Profile: spec.Profile,
		DeadlineMs: 60_000}
}

// traceServe replays the sampled requests, then sends them to the live
// server through the same closed loop the end-to-end run uses.
func traceServe(o runOpts, r *runResult, tr *tracer) error {
	served := o
	sample := replaySample
	if isSim(o.workload) {
		served.workload, sample = wServeCold, replaySampleSim
	}
	g, err := setupServe(served)
	if err != nil {
		return err
	}
	defer g.close()

	var reqs []*request
	for b := 0; len(reqs) < sample; b++ {
		batch, err := g.stream.batch(b)
		if err != nil {
			return err
		}
		reqs = append(reqs, batch...)
	}
	pick := rand.New(rand.NewSource(o.seed)).Perm(len(reqs))[:sample]
	sort.Ints(pick)
	for i, k := range pick {
		reqs[i] = reqs[k] // pick is ascending, so k >= i: nothing needed later is overwritten
	}
	reqs = reqs[:sample]

	dir, err := os.MkdirTemp(o.outDir, "tmp-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rp := &replayer{tr: tr}
	if rp.store, err = openWarmStore(dir); err != nil {
		return err
	}
	if g.topo.fleet != nil {
		rp.coord = g.topo.fleet.coord
	}
	// serve_hot answers from the cache, so the replay's own store is
	// pre-filled the way the server's was: one cold pass over the
	// working set, outside the spans.
	if ws := g.stream.workingSet(); len(ws) > 0 {
		fill := &replayer{tr: newTracer(), store: rp.store}
		for _, req := range ws {
			if _, err := fill.replay(req); err != nil {
				return fmt.Errorf("pre-fill %s: %w", req.key, err)
			}
		}
	}
	children := make([]time.Duration, len(reqs))
	for i, req := range reqs {
		if children[i], err = rp.replay(req); err != nil {
			return fmt.Errorf("replay of request %d: %w", req.index, err)
		}
	}

	runtime.GC()
	mark := markHost()
	_, resps := g.client.runBatch(reqs)
	host := mark.since()

	var (
		lat, overhead, queue, run []float64
		warm, cached              int
		total                     simTotals
		perWorker                 = map[string]int{}
	)
	for i := range resps {
		resp := &resps[i]
		if err := checkResponse(served.workload, resp); err != nil {
			return fmt.Errorf("live request %d (%s): %w", reqs[i].index, reqs[i].class, err)
		}
		lat = append(lat, ms(resp.lat))
		overhead = append(overhead, ms(resp.lat-children[i]))
		queue = append(queue, resp.res.QueueMs)
		run = append(run, resp.res.RunMs)
		if resp.res.PoolWarm {
			warm++
		}
		if resp.res.Cached {
			cached++
		}
		if resp.res.Worker != "" {
			perWorker[resp.res.Worker]++
		}
		total.add(resp.res.Cycles, resp.res.Retired, resp.res.Mem)
	}
	n := float64(len(lat))
	mean := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	m := r.Metrics
	m.put("serve.request_ms", median(lat), "ms")
	m.put("serve.overhead_ms", median(overhead), "ms")
	// Shares of the mean round trip, not times: on serve_hot both are
	// exactly 0 on every run, and the contract rejects a time that never
	// changes.
	m.put("serve.queue_wait_share", mean(queue)/mean(lat), "ratio")
	m.put("serve.run_share", mean(run)/mean(lat), "ratio")
	m.put("serve.pool_warm_share", float64(warm)/n, "ratio")
	m.put("serve.cached_share", float64(cached)/n, "ratio")
	self := tr.selfTimes()
	m.put("cc.build_ms", median(self["cc.build"]), "ms")
	m.put("asm.assemble_ms", median(self["asm.assemble"]), "ms")
	if !isSim(o.workload) { // the live sends are this workload's traced operations
		r.Attempted += len(lat)
		r.OK += len(lat)
		host.metrics(len(lat), m)
		putTail(m, sortedCopy(lat))
		total.put(m)
	}

	// Counters the live server and its cache store kept.
	sm, err := scrapeMetrics(g.topo.url)
	if err != nil {
		return err
	}
	pool := sim.PoolStats{Hits: uint64(sm["lbp_serve_pool_hits_total"]), Misses: uint64(sm["lbp_serve_pool_misses_total"])}
	if g.topo.fleet != nil {
		pool = sim.PoolStats{}
		for _, w := range g.topo.fleet.workers {
			ps := w.PoolStats()
			pool.Hits += ps.Hits
			pool.Misses += ps.Misses
		}
	}
	m.put("sim.pool_hit_share", share(float64(pool.Hits), float64(pool.Misses)), "ratio")
	m.put("cache.hit_share", share(sm["lbp_serve_cache_hits_total"], sm["lbp_serve_cache_misses_total"]), "ratio")
	m.put("cache.evictions", float64(g.topo.store.Stats().Evictions), "count")

	return traceDispatch(o, r, tr, g.topo.fleet, perWorker)
}

// openWarmStore opens a cache store of the benchmark's own whose 256
// shard directories already exist, as they do in a server that has
// answered a few hundred jobs: a Put into a fresh store pays a mkdir
// that the live server's Put does not.
func openWarmStore(dir string) (*cache.Store, error) {
	store, err := cache.Open(dir, hotCacheBytes)
	if err != nil {
		return nil, err
	}
	for shard := 0; shard < 256; shard++ {
		key := fmt.Sprintf("%02x%062x", shard, 0)
		if err := store.Put(key, []byte("{}")); err != nil {
			return nil, err
		}
		store.Remove(key)
	}
	return store, nil
}

func share(yes, no float64) float64 {
	if yes+no == 0 {
		return 0
	}
	return yes / (yes + no)
}

// scrapeMetrics reads the counters of the live server's /metrics.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		var name string
		var v float64
		if strings.HasPrefix(line, "#") {
			continue
		}
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// traceDispatch sends prebuilt jobs through Coordinator.Do and, for
// each, replays locally what a worker does for it (ReadImage, GetWarm,
// Run): the difference is the hop. On fleet_cold the live fleet is
// used, so its counters include the live requests; otherwise a fleet
// of the same shape is started for the probe.
func traceDispatch(o runOpts, r *runResult, tr *tracer, f *fleet, perWorker map[string]int) error {
	if f == nil {
		var err error
		if f, err = startFleet(); err != nil {
			return err
		}
		defer f.close()
	}
	s, err := newStream(o.root, wServeCold, o.seed, dispatchJobs)
	if err != nil {
		return err
	}
	reqs, err := s.batch(warmBatchIndex + 1)
	if err != nil {
		return err
	}
	var pool sim.Pool
	var do, hop []float64
	warm := 0
	for _, req := range reqs {
		prog, err := compileRequest(&req.req)
		if err != nil {
			return err
		}
		spec := specOf(&req.req, prog)
		key, err := sim.CacheKey(spec)
		if err != nil {
			return err
		}
		var img bytes.Buffer
		if err := prog.WriteImage(&img); err != nil {
			return err
		}
		name := fmt.Sprintf("dispatch#%d", req.index)
		root := tr.start(0, "dispatch.probe", name)
		var local time.Duration
		var sess *sim.Session
		local += tr.timed(root, "asm.readimage", name, func() { prog, err = asm.ReadImage(bytes.NewReader(img.Bytes())) })
		if err == nil {
			spec.Program = prog
			local += tr.timed(root, "sim.pool_getwarm", name, func() { sess, _, err = pool.GetWarm(spec) })
		}
		if err == nil {
			local += tr.timed(root, "lbp.run", name, func() { _, err = sess.Run() })
			pool.Put(sess)
		}
		if err != nil {
			return err
		}
		var res *dispatch.Result
		job := dispatchJob(name, key, img.Bytes(), &spec)
		d := tr.timed(root, "dispatch.do", name, func() { res, err = f.coord.Do(context.Background(), job) })
		tr.end(root)
		if err != nil {
			return err
		}
		if res.Status != dispatch.StatusOK {
			return fmt.Errorf("%s: status %s: %s", name, res.Status, res.Error)
		}
		do = append(do, ms(d))
		hop = append(hop, ms(d-local))
		if res.PoolWarm {
			warm++
		}
		perWorker[res.Worker]++
	}
	m := r.Metrics
	m.put("dispatch.do_ms", median(do), "ms")
	m.put("dispatch.hop_ms", median(hop), "ms")
	m.put("dispatch.affine_warm_share", float64(warm)/float64(len(do)), "ratio")
	lo, hi := 0, 0
	for _, n := range perWorker {
		if lo == 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	if len(perWorker) < fleetWorkers {
		lo = 0 // a backend that ran nothing
	}
	imbalance := float64(hi)
	if lo > 0 {
		imbalance = float64(hi) / float64(lo)
	}
	m.put("dispatch.backend_imbalance", imbalance, "ratio")
	dm := f.coord.Metrics()
	m.put("dispatch.retries", float64(dm.Retries), "count")
	m.put("dispatch.steals", float64(dm.Steals), "count")
	m.put("dispatch.checkpoints", float64(dm.Checkpoints), "count")
	if dm.Retries != 0 {
		return fmt.Errorf("dispatch: %d retries on a healthy in-process fleet", dm.Retries)
	}
	return nil
}

// echo answers every call with its own params.
type echo struct{}

func (echo) ServeRPC(_ context.Context, _ *rpc.ServerConn, _ string, params json.RawMessage) (any, error) {
	return params, nil
}

// traceProbes times single calls into the layers whose cost depends on
// payload size, on a small and on the data-heavy input.
func traceProbes(o runOpts, r *runResult) error {
	m := r.Metrics
	vecsum, err := os.ReadFile(filepath.Join(o.root, "testdata", "vecsum.c"))
	if err != nil {
		return err
	}
	smallReq, err := newRequest("vecsum", "", serve.JobRequest{Source: string(vecsum), Cores: 2, Digest: true})
	if err != nil {
		return err
	}
	smallImg, err := buildImage(string(vecsum), 2)
	if err != nil {
		return err
	}
	bigImg, err := buildImage(imageSource(int(o.seed%1000)+1), imageCores)
	if err != nil {
		return err
	}
	bigReq, err := newRequest("image", "", serve.JobRequest{Image: bigImg, Cores: imageCores, Digest: true})
	if err != nil {
		return err
	}

	decode := func(body []byte) func() error {
		return func() error { var jr serve.JobRequest; return json.Unmarshal(body, &jr) }
	}
	readImage := func(img []byte) func() error {
		return func() error { _, err := asm.ReadImage(bytes.NewReader(img)); return err }
	}
	smallProg, err := asm.ReadImage(bytes.NewReader(smallImg))
	if err != nil {
		return err
	}
	bigProg, err := asm.ReadImage(bytes.NewReader(bigImg))
	if err != nil {
		return err
	}
	cacheKey := func(req *request, prog *asm.Program) func() error {
		spec := specOf(&req.req, prog)
		return func() error { _, err := sim.CacheKey(spec); return err }
	}
	for _, p := range []struct {
		name string
		reps int
		per  float64 // divide by this many MiB (0 = report the call)
		f    func() error
	}{
		{"serve.decode_ms", probeReps, 0, decode(smallReq.body)},
		{"serve.decode_ms_per_mb", probeRepsBig, mib(len(bigReq.body)), decode(bigReq.body)},
		{"asm.readimage_ms", probeReps, 0, readImage(smallImg)},
		{"asm.readimage_ms_per_mb", probeRepsBig, mib(len(bigImg)), readImage(bigImg)},
		{"asm.writeimage_ms_per_mb", probeRepsBig, mib(len(bigImg)), func() error { return bigProg.WriteImage(io.Discard) }},
		{"sim.cachekey_ms", probeReps, 0, cacheKey(smallReq, smallProg)},
		{"sim.cachekey_ms_per_mb", probeRepsBig, mib(len(bigImg)), cacheKey(bigReq, bigProg)},
	} {
		v, err := repeat(p.reps, p.f)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if p.per > 0 {
			m.put(p.name, v/p.per, "ms/MiB")
		} else {
			m.put(p.name, v, "ms")
		}
	}

	// cache.Store on a store of the benchmark's own, with the payload of
	// a real result.
	want, err := directRun(&smallReq.req)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(&serve.JobResult{Status: want.status, Halt: want.halt, Cycles: want.cycles,
		Retired: want.retired, Digest: want.digest, Events: want.events})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.outDir, "tmp-cacheprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := openWarmStore(dir)
	if err != nil {
		return err
	}
	key := func(i int) string {
		sum := sha256.Sum256([]byte(fmt.Sprint(o.seed, i)))
		return hex.EncodeToString(sum[:])
	}
	i := 0
	put, err := repeat(probeReps, func() error { i++; return store.Put(key(i), payload) })
	if err != nil {
		return err
	}
	i = 0
	hit, err := repeat(probeReps, func() error {
		i++
		if _, ok := store.Get(key(i)); !ok {
			return fmt.Errorf("cache probe: key %d missing", i)
		}
		return nil
	})
	if err != nil {
		return err
	}
	miss, err := repeat(probeReps, func() error {
		i++
		if _, ok := store.Get(key(i)); ok {
			return fmt.Errorf("cache probe: key %d present", i)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.put("cache.put_ms", put, "ms")
	m.put("cache.get_hit_ms", hit, "ms")
	m.put("cache.get_miss_ms", miss, "ms")

	// rpc round trip against an echo handler, 256 B and 1 MiB params.
	srv := rpc.NewServer(echo{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close() // the probe is over either way
		<-served
	}()
	conn, err := rpc.Dial(ln.Addr().String(), nil)
	if err != nil {
		return err
	}
	defer conn.Close()
	call := func(n int) func() error {
		params := strings.Repeat("x", n)
		return func() error {
			var back string
			if err := conn.Call(context.Background(), "echo", params, &back); err != nil {
				return err
			}
			if len(back) != n {
				return fmt.Errorf("rpc echo returned %d bytes, want %d", len(back), n)
			}
			return nil
		}
	}
	small, err := repeat(probeReps, call(256))
	if err != nil {
		return err
	}
	big, err := repeat(2*probeRepsBig, call(1<<20))
	if err != nil {
		return err
	}
	m.put("rpc.roundtrip_small_ms", small, "ms")
	m.put("rpc.roundtrip_ms_per_mb", big, "ms/MiB")
	return nil
}
