package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/dispatch"
	"repro/internal/fuzzgen"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Serving load shape. Closed loop: each client sends its next request
// when the previous one returns, which is how the real callers (sweep
// scripts, CI) behave; on a 2-core host an open-loop generator would
// also fight the server for the same cores.
const (
	hotBatch  = 500 // requests per serve_hot batch
	coldBatch = 250 // requests per serve_cold / fleet_cold batch

	hotCacheBytes = 64 << 20
	// About 600 result payloads: the cold workloads reach the bound
	// within their first two batches and every later Put evicts. (The
	// issue's 1 MiB would be reached a third of the way into a run, and
	// filling it during set-up costs 2400 file creations whose time
	// varies fivefold on this filesystem.)
	coldCacheBytes = 256 << 10

	hotFuzzSources = 64
	hotImages      = 4
	imageWords     = 64 << 10 // initialised global of the data-heavy image jobs
	imageCores     = 16

	verifyEvery = 50 // every 50th response is re-run on a direct sim.Session

	// warmBatchIndex places the warm-up batch of a cold stream far from
	// the counted ones, so its requests are distinct from all of them.
	warmBatchIndex = 1_000_000
	coldCycleBase  = 50_000_000 // maxCycles = base + index makes each Figure-19 request its own cache key
)

func loadClients() int { return min(2, runtime.NumCPU()) }

// request is one generated job.
type request struct {
	index int // position in the send order of the whole stream
	class string
	key   string // identity for memoising direct checks (hot working set)
	req   serve.JobRequest
	body  []byte
}

func newRequest(class, key string, jr serve.JobRequest) (*request, error) {
	body, err := json.Marshal(&jr)
	if err != nil {
		return nil, err
	}
	return &request{class: class, key: key, req: jr, body: body}, nil
}

const spinSource = `# 12-instruction spin: count down, store, exit.
main:
	li t1, 40
loop:
	addi t1, t1, -1
	bnez t1, loop
	la a0, out
	li a1, 42
	sw a1, 0(a0)
	li ra, 0
	li t0, -1
	p_ret
	.data
out:
	.word 0
`

// imageSource is a MiniC program whose image is data, not code: a 64
// Ki-word initialised global (a >512 KiB image) and a main of a few
// thousand cycles.
func imageSource(fill int) string {
	return fmt.Sprintf(`int big[%d] = {[0 ... %d] = %d};
int out;
void main() { out = big[0] + big[%d]; }
`, imageWords, imageWords-1, fill, imageWords-1)
}

// stream generates a workload's requests from the seed and nothing
// else: the same seed gives byte-identical bodies in the same order.
type stream struct {
	workload string
	seed     int64
	size     int // batch size
	hot      struct{ fuzz, small, image []*request }
	sum      hash.Hash // over the bodies of the counted batches, in send order
	hashed   int       // counted batches folded into sum so far
}

func fuzzSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// fuzzRequest is a generated MiniC program on the smallest machine it
// targets. Distinct seeds give distinct programs (none of 200 000
// consecutive seeds collide), so each is its own cache key while the
// default cycle budget keeps them on shared warm-pool machines.
func fuzzRequest(fseed int64) serve.JobRequest {
	p := fuzzgen.Generate(fseed, fuzzgen.GenConfig{})
	return serve.JobRequest{Source: p.Render(), Cores: p.MinCores, Digest: true}
}

// hotCorpusSeed is the first fuzzgen seed of serve_hot's working set.
// The working set is a fixed corpus, like the Figure-20 programs of
// sim_matmul64: --seed decides which entry each request repeats and in
// what order, not what the entries are. With only 64 sources a
// seed-drawn set moved jobs_per_s by 11 % from seed to seed (compile
// cost per source varies 5x), which would drown any real change.
const hotCorpusSeed = 1_000_003

func newStream(root, workload string, seed int64, size int) (*stream, error) {
	s := &stream{workload: workload, seed: seed, size: size, sum: sha256.New()}
	if workload != wServeHot {
		return s, nil
	}
	add := func(dst *[]*request, class, key string, jr serve.JobRequest) error {
		r, err := newRequest(class, key, jr)
		if err == nil {
			*dst = append(*dst, r)
		}
		return err
	}
	for j := 0; j < hotFuzzSources; j++ {
		if err := add(&s.hot.fuzz, "fuzz", fmt.Sprintf("fuzz%d", j), fuzzRequest(hotCorpusSeed+int64(j))); err != nil {
			return nil, err
		}
	}
	vecsum, err := os.ReadFile(filepath.Join(root, "testdata", "vecsum.c"))
	if err != nil {
		return nil, err
	}
	if err := add(&s.hot.small, "vecsum", "vecsum", serve.JobRequest{Source: string(vecsum), Cores: 2, Digest: true}); err != nil {
		return nil, err
	}
	if err := add(&s.hot.small, "spin", "spin", serve.JobRequest{Source: spinSource, Lang: "s", Cores: 1, Digest: true}); err != nil {
		return nil, err
	}
	for j := 0; j < hotImages; j++ {
		img, err := buildImage(imageSource(1+j), imageCores)
		if err != nil {
			return nil, err
		}
		if err := add(&s.hot.image, "image", fmt.Sprintf("image%d", j), serve.JobRequest{Image: img, Cores: imageCores, Digest: true}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// buildImage compiles MiniC for an n-core machine and serialises it.
func buildImage(src string, cores int) ([]byte, error) {
	prog, err := compileRequest(&serve.JobRequest{Source: src, Cores: cores})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := prog.WriteImage(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// workingSet lists the distinct requests of serve_hot, for the
// pre-fill.
func (s *stream) workingSet() []*request {
	out := append([]*request(nil), s.hot.fuzz...)
	out = append(out, s.hot.small...)
	return append(out, s.hot.image...)
}

// batch generates batch b. The class of a request is fixed by its
// position modulo 100, so every batch of a multiple of 100 has exactly
// the declared mix; a per-batch seeded shuffle then fixes the order.
func (s *stream) batch(b int) ([]*request, error) {
	rng := rand.New(rand.NewSource(s.seed*7919 + int64(b)))
	out := make([]*request, 0, s.size)
	for k := 0; k < s.size; k++ {
		i := b*s.size + k
		var r *request
		var err error
		switch {
		case s.workload == wServeHot:
			switch slot := i % 100; {
			case slot < 88: // 88 %: repeats of the 64 fuzzgen sources
				r = s.hot.fuzz[rng.Intn(len(s.hot.fuzz))]
			case slot < 98: // 10 %: vecsum.c and the assembly spin
				r = s.hot.small[slot%2]
			default: // 2 %: data-heavy images
				r = s.hot.image[rng.Intn(len(s.hot.image))]
			}
			c := *r
			r = &c
		case i%10 == 9: // 10 %: Figure-19 base / copy sources
			v := []workloads.MatmulVariant{workloads.Base, workloads.Copy}[(i/10)%2]
			var src string
			if src, err = workloads.MatmulSource(v, 16); err == nil {
				r, err = newRequest("fig19", "", serve.JobRequest{Source: src, Cores: 4, MaxCycles: coldCycleBase + uint64(i), Digest: true})
			}
		default: // 90 %: fresh fuzzgen sources, three pool geometries
			r, err = newRequest("fuzz", "", fuzzRequest(fuzzSeed(s.seed, 1000+i)))
		}
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for k, r := range out {
		r.index = b*s.size + k
	}
	if b == s.hashed {
		for _, r := range out {
			s.sum.Write(r.body)
		}
		s.hashed++
	}
	return out, nil
}

func (s *stream) sha() string { return hex.EncodeToString(s.sum.Sum(nil)) }

// compileRequest builds a request's program the way serve's unexported
// JobRequest.compile does.
func compileRequest(r *serve.JobRequest) (*asm.Program, error) {
	if len(r.Image) > 0 {
		return asm.ReadImage(bytes.NewReader(r.Image))
	}
	if r.Lang == "s" {
		return asm.Assemble(r.Source, asm.Options{})
	}
	text, err := cc.BuildProgram(r.Source, ccOptions(r))
	if err != nil {
		return nil, err
	}
	return asm.Assemble(text, asm.Options{})
}

func ccOptions(r *serve.JobRequest) cc.Options {
	opt := cc.DefaultOptions()
	if r.Cores > 0 {
		opt.Cores = r.Cores
	}
	if r.BankBytes != 0 {
		opt.SharedBankBytes = r.BankBytes
	}
	return opt
}

// specOf is the sim.Spec handleJobs derives from a request.
func specOf(r *serve.JobRequest, prog *asm.Program) sim.Spec {
	maxCycles := r.MaxCycles
	if maxCycles == 0 {
		maxCycles = 100_000_000 // serve.Config.DefaultMaxCycles
	}
	return sim.Spec{
		Program:         prog,
		Cores:           r.Cores,
		SharedBankBytes: r.BankBytes,
		MaxCycles:       maxCycles,
		Trace:           sim.TraceSpec{Digest: r.Digest, Ring: r.Ring},
		Profile:         r.Profile,
	}
}

// outcome is the deterministic part of a response, the part folded
// into results_digest and compared with a direct run.
type outcome struct {
	status, halt            string
	cycles, retired, events uint64
	digest                  uint64
}

func outcomeOf(res *serve.JobResult) outcome {
	return outcome{status: res.Status, halt: res.Halt, cycles: res.Cycles, retired: res.Retired, digest: res.Digest, events: res.Events}
}

func (o outcome) String() string {
	return fmt.Sprintf("%s|%s|%d|%d|%#x|%d", o.status, o.halt, o.cycles, o.retired, o.digest, o.events)
}

// directRun runs the request on a fresh sim.Session, bypassing every
// serving layer: the reference a response is checked against.
func directRun(r *serve.JobRequest) (outcome, error) {
	prog, err := compileRequest(r)
	if err != nil {
		return outcome{}, err
	}
	sess, err := sim.New(specOf(r, prog))
	if err != nil {
		return outcome{}, err
	}
	res, err := sess.Run()
	if err != nil {
		return outcome{}, err
	}
	o := outcome{status: serve.StatusOK, halt: res.Halt, cycles: res.Stats.Cycles, retired: res.Stats.Retired}
	if rec := sess.Recorder(); rec != nil {
		o.digest, o.events = rec.Digest(), rec.Count()
	}
	return o, nil
}

// topology is the system under test, built in-process with the
// constructors cmd/lbp-serve uses, behind real loopback sockets.
type topology struct {
	url     string
	dir     string
	store   *cache.Store
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	fleet   *fleet
}

// fleet is a coordinator over two in-process workers on loopback TCP.
type fleet struct {
	coord   *dispatch.Coordinator
	workers []*dispatch.Worker
	served  chan error
}

const fleetWorkers = 2

func startFleet() (*fleet, error) {
	f := &fleet{served: make(chan error, fleetWorkers)}
	var addrs []string
	for i := 0; i < fleetWorkers; i++ {
		w := dispatch.NewWorker(dispatch.WorkerConfig{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
		addrs = append(addrs, ln.Addr().String())
		go func() { f.served <- w.Serve(ln) }()
	}
	coord, err := dispatch.New(dispatch.Config{Backends: addrs})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	return f, nil
}

func (f *fleet) close() {
	if f.coord != nil {
		_ = f.coord.Close() // a close error changes nothing: the run is over
	}
	for _, w := range f.workers {
		_ = w.Close()
		<-f.served // Serve has returned: the worker's goroutines are done
	}
}

func startTopology(workload, dir string) (*topology, error) {
	t := &topology{dir: dir, served: make(chan error, 1)}
	cacheBytes := int64(coldCacheBytes)
	if workload == wServeHot {
		cacheBytes = hotCacheBytes
	}
	var err error
	if t.store, err = cache.Open(filepath.Join(dir, "cache"), cacheBytes); err != nil {
		return nil, err
	}
	cfg := serve.Config{Workers: runtime.NumCPU(), Cache: t.store}
	if workload == wFleetCold {
		if t.fleet, err = startFleet(); err != nil {
			return nil, err
		}
		cfg.Dispatcher = t.fleet.coord
	}
	t.srv = serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.url = "http://" + ln.Addr().String()
	t.httpSrv = &http.Server{Handler: t.srv.Handler()}
	go func() { t.served <- t.httpSrv.Serve(ln) }()
	return t, nil
}

func (t *topology) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = t.srv.Shutdown(ctx) // errors here change nothing: the run is over
	if t.httpSrv != nil {
		_ = t.httpSrv.Shutdown(ctx)
		<-t.served
	}
	if t.fleet != nil {
		t.fleet.close()
	}
	_ = os.RemoveAll(t.dir)
}

// response is what a client saw for one request.
type response struct {
	code int
	res  serve.JobResult
	lat  time.Duration // send to last byte
	err  error
}

type loadClient struct {
	url     string
	http    *http.Client
	clients int
}

func newLoadClient(url string) *loadClient {
	n := loadClients()
	return &loadClient{url: url + "/jobs", clients: n, http: &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: n, DisableCompression: true},
	}}
}

func (c *loadClient) close() { c.http.CloseIdleConnections() }

// send posts one request; the only instrumentation of an end-to-end
// run is this one timestamp pair.
func (c *loadClient) send(r *request) (out response) {
	start := time.Now()
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return response{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	out.lat = time.Since(start)
	resp.Body.Close()
	out.code = resp.StatusCode
	if err != nil {
		out.err = err
		return out
	}
	out.err = json.Unmarshal(body, &out.res)
	return out
}

// runBatch sends the batch through the closed loop and returns its
// wall time and the responses in request order.
func (c *loadClient) runBatch(reqs []*request) (time.Duration, []response) {
	out := make([]response, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < c.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(reqs) {
					return
				}
				out[k] = c.send(reqs[k])
			}
		}()
	}
	wg.Wait()
	return time.Since(start), out
}

// checkResponse applies the per-response rules: 200, status ok, halted
// by exit, and served from the cache exactly when the workload says so.
func checkResponse(workload string, r *response) error {
	switch {
	case r.err != nil:
		return r.err
	case r.code != http.StatusOK:
		return fmt.Errorf("HTTP %d: %s %s", r.code, r.res.Status, r.res.Error)
	case r.res.Status != serve.StatusOK || r.res.Halt != "exit":
		return fmt.Errorf("status %q halt %q: %s", r.res.Status, r.res.Halt, r.res.Error)
	case r.res.Cached != (workload == wServeHot):
		return fmt.Errorf("cached = %v on %s", r.res.Cached, workload)
	}
	return nil
}

// serveRig is a started topology with its stream and client: what
// setup builds and the measured phase uses.
type serveRig struct {
	topo   *topology
	stream *stream
	client *loadClient
}

func (g *serveRig) close() {
	g.client.close()
	g.topo.close()
}

// setupServe starts the servers, generates the working set, pre-fills
// the cache (serve_hot) and runs one uncounted warm-up batch, so
// pools, the decode-image LRU, the page cache and lazy initialisation
// are filled before timing.
func setupServe(o runOpts) (*serveRig, error) {
	dir, err := os.MkdirTemp(o.outDir, "tmp-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	topo, err := startTopology(o.workload, dir)
	if err != nil {
		return nil, err
	}
	g := &serveRig{topo: topo, client: newLoadClient(topo.url)}
	if g.stream, err = newStream(o.root, o.workload, o.seed, o.batchSize()); err != nil {
		g.close()
		return nil, err
	}
	for _, r := range g.stream.workingSet() {
		if resp := g.client.send(r); resp.err != nil || resp.code != http.StatusOK {
			g.close()
			return nil, fmt.Errorf("pre-fill %s: HTTP %d %s %v", r.key, resp.code, resp.res.Error, resp.err)
		}
	}
	warm, err := g.stream.batch(warmBatchIndex)
	if err != nil {
		g.close()
		return nil, err
	}
	_, resps := g.client.runBatch(warm)
	for i := range resps {
		if err := checkResponse(o.workload, &resps[i]); err != nil {
			g.close()
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return g, nil
}

// foldResponse adds one response to the results digest: index plus the
// deterministic fields, in request order.
func foldResponse(h hash.Hash, index int, r *response) {
	fmt.Fprintf(h, "%d|%s\n", index, outcomeOf(&r.res))
}

// sampled is a response kept for the direct-run check after timing.
type sampled struct {
	req  *request
	resp outcome
}

// verifySampled re-runs each kept request on a direct sim.Session and
// counts every mismatch as a failure.
func verifySampled(r *runResult, kept []sampled) {
	memo := map[string]outcome{}
	for _, s := range kept {
		want, ok := memo[s.req.key]
		if !ok || s.req.key == "" {
			var err error
			if want, err = directRun(&s.req.req); err != nil {
				r.fail("request %d: direct run: %v", s.req.index, err)
				continue
			}
			memo[s.req.key] = want
		}
		if s.resp != want {
			r.fail("request %d: served %s, direct run %s", s.req.index, s.resp, want)
		}
	}
}

// runServeWorkload measures one serving workload: fixed-size batches
// through the closed loop until the time is up.
func runServeWorkload(o runOpts) (*runResult, error) {
	r := o.newResult()
	var g *serveRig
	setup, err := timeSetups(o.setups, func() (err error) {
		g, err = setupServe(o)
		return err
	}, func() { g.close() })
	if err != nil {
		return nil, err
	}
	defer g.close()
	r.BatchSize = g.stream.size
	runtime.GC()

	var (
		stats batchStats
		kept  []sampled
		sum   = sha256.New()
		mark  = markHost()
		start = time.Now()
	)
	for b := 0; b < o.minBatches || time.Since(start).Seconds() < o.seconds; b++ {
		reqs, err := g.stream.batch(b)
		if err != nil {
			return nil, err
		}
		wall, resps := g.client.runBatch(reqs)
		var cycles uint64
		var blat []time.Duration
		for i := range resps {
			resp, req := &resps[i], reqs[i]
			r.Attempted++
			foldResponse(sum, req.index, resp)
			if err := checkResponse(o.workload, resp); err != nil {
				r.fail("request %d (%s): %v", req.index, req.class, err)
				continue
			}
			r.OK++
			cycles += resp.res.Cycles
			blat = append(blat, resp.lat)
			if req.index%verifyEvery == 0 {
				kept = append(kept, sampled{req, outcomeOf(&resp.res)})
			}
		}
		if b+1 == o.minBatches {
			r.Exact["results_digest"] = hex.EncodeToString(sum.Sum(nil))
			r.Exact["stream_sha256"] = g.stream.sha()
		}
		if len(blat) > 0 {
			stats.add(cycles, wall, wall, blat)
		}
	}
	host := mark.since()
	verifySampled(r, kept)
	if want, ok := o.resultsPin(); ok && r.Exact["results_digest"] != want {
		// A wrong digest means some response differs from the pinned
		// run and nothing says which: every request counts as failed.
		r.Failures = append(r.Failures, fmt.Sprintf("results_digest %s, pinned %s", r.Exact["results_digest"], want))
		r.OK, r.Failed = 0, r.Attempted
	}
	stats.report(r, setup, host)
	r.Extra.put("cache.evictions", float64(g.topo.store.Stats().Evictions), "count")
	return r, nil
}
