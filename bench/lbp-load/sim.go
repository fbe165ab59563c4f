package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/lbp"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// simPin is the pinned outcome of one simulation program. Simulated
// counts repeat exactly on any host, so a change in any of them is a
// model change, never a host speed-up. LiveHartCycles (hart-cycles
// minus "hart-free" stalls) needs a Profile run that is ten times
// slower at 1024 cores, so -repin measures it once and runs divide
// their wall time by the pinned count.
type simPin struct {
	Cycles         uint64 `json:"cycles"`
	Retired        uint64 `json:"retired"`
	Digest         string `json:"digest"`
	Events         uint64 `json:"events"`
	LiveHartCycles uint64 `json:"live_hart_cycles,omitempty"`
}

const pinFormat = "cycles=%d retired=%d digest=%s events=%d"

// String is how a run's simulated counts travel in runResult.Exact.
func (p simPin) String() string {
	return fmt.Sprintf(pinFormat, p.Cycles, p.Retired, p.Digest, p.Events)
}

func parsePin(s string) (simPin, error) {
	var p simPin
	_, err := fmt.Sscanf(s, pinFormat, &p.Cycles, &p.Retired, &p.Digest, &p.Events)
	return p, err
}

// pins is bench/pins.json.
type pins struct {
	Seed          int64             `json:"seed"`
	Sim           map[string]simPin `json:"sim"`
	ResultsDigest map[string]string `json:"results_digest"`
}

func loadPins(root string) (*pins, error) {
	var p pins
	if err := readJSON(filepath.Join(root, "bench", "pins.json"), &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// simProg is one program of a simulation workload with the machine it
// runs on and the check of what it computed.
type simProg struct {
	workload string // the sim_* workload the program belongs to
	name     string // metric suffix: base, copy, ..., 256c, 1024c
	cores    int
	spec     sim.Spec
	verify   func(*lbp.Machine) error
}

func pinOf(sess *sim.Session, res *lbp.Result) simPin {
	p := simPin{Cycles: res.Stats.Cycles, Retired: res.Stats.Retired}
	if rec := sess.Recorder(); rec != nil {
		p.Digest = fmt.Sprintf("%#016x", rec.Digest())
		p.Events = rec.Count()
	}
	return p
}

const matmulHarts = 64

// buildMatmulProgs builds the five Figure-20 programs (16 cores, 64
// harts) exactly as internal/figures runs them.
func buildMatmulProgs() ([]*simProg, error) {
	var out []*simProg
	for _, v := range workloads.Variants {
		prog, err := workloads.BuildMatmul(v, matmulHarts)
		if err != nil {
			return nil, err
		}
		cfg := workloads.MatmulConfig(matmulHarts)
		v := v
		out = append(out, &simProg{
			workload: wSimMatmul,
			name:     strings.ReplaceAll(string(v), "d+c", "dc"),
			cores:    matmulHarts / lbp.HartsPerCore,
			spec: sim.Spec{
				Program:   prog,
				Config:    &cfg,
				MaxCycles: workloads.MaxMatmulCycles(matmulHarts),
				Trace:     sim.TraceSpec{Digest: true},
			},
			verify: func(m *lbp.Machine) error { return workloads.VerifyMatmul(m, prog, v, matmulHarts) },
		})
	}
	return out, nil
}

// The E18 / figure-22 weak-scaling program. internal/figures does not
// export its generator, so this is a copy; reproducing E18's cycle
// anchors (44044 / 162112 / 635212, zero routed accesses) on every run
// proves it is the same program.
const (
	scaleChunk        = 64  // words each hart writes and reads back
	scaleReserveBytes = 512 // bank reserve below the RESW offset
)

var scaleCores = []int{64, 256, 1024}

func scaleSource(harts int) string {
	return fmt.Sprintf(`
#define H %d
#define CHUNK %d
#define RESW 128

int *vchunk(int t) { return lbp_bank_ptr(t >> 2) + RESW + (t & 3) * CHUNK; }

void main() {
	int t;
	#pragma omp parallel for
	for (t = 0; t < H; t++) {
		int *p; int i;
		p = vchunk(t);
		for (i = 0; i < CHUNK; i++) { *p = t + i; p = p + 1; }
	}
	#pragma omp parallel for
	for (t = 0; t < H; t++) {
		int *p; int i; int acc;
		p = vchunk(t);
		acc = 0;
		for (i = 0; i < CHUNK; i++) { acc = acc + *p; p = p + 1; }
		*vchunk(t) = acc;
	}
}
`, harts, scaleChunk)
}

// verifyScale checks every hart's get-phase sum through the placement
// arithmetic the program uses.
func verifyScale(m *lbp.Machine, cores int) error {
	bank := m.Config().Mem.SharedBytes
	for t := 0; t < cores*lbp.HartsPerCore; t++ {
		addr := asm.DefaultDataBase + uint32(t>>2)*bank + 4*uint32(128+(t&3)*scaleChunk)
		got, ok := m.ReadShared(addr)
		want := uint32(scaleChunk*t + scaleChunk*(scaleChunk-1)/2)
		if !ok || got != want {
			return fmt.Errorf("scale/%dc: chunk %d = %d (mapped %v), want %d", cores, t, got, ok, want)
		}
	}
	return nil
}

func buildScaleProgs() ([]*simProg, error) {
	var out []*simProg
	for _, n := range scaleCores {
		opt := cc.DefaultOptions()
		opt.Cores = n
		opt.BankReserveBytes = scaleReserveBytes
		text, err := cc.BuildProgram(scaleSource(n*lbp.HartsPerCore), opt)
		if err != nil {
			return nil, fmt.Errorf("scale/%dc: compile: %w", n, err)
		}
		prog, err := asm.Assemble(text, asm.Options{})
		if err != nil {
			return nil, fmt.Errorf("scale/%dc: assemble: %w", n, err)
		}
		n := n
		out = append(out, &simProg{
			workload: wSimScale,
			name:     fmt.Sprintf("%dc", n),
			cores:    n,
			spec: sim.Spec{
				Program:   prog,
				Cores:     n,
				MaxCycles: uint64(n)*lbp.HartsPerCore*scaleChunk*1000 + 1_000_000,
				Trace:     sim.TraceSpec{Digest: true},
			},
			verify: func(m *lbp.Machine) error { return verifyScale(m, n) },
		})
	}
	return out, nil
}

func buildSimProgs(workload string) ([]*simProg, error) {
	if workload == wSimScale {
		return buildScaleProgs()
	}
	return buildMatmulProgs()
}

// simJob is one timed checkout-run-return of a program.
type simJob struct {
	res     *lbp.Result
	pin     simPin
	getWarm time.Duration // Pool.GetWarm
	run     time.Duration // Session.Run
	total   time.Duration // checkout + run + return, verification excluded
}

// runSimJob runs p once on a pooled machine, single-threaded, the way
// lbp-bench runs a figure row. check, when set, inspects the machine
// before it goes back to the pool.
func runSimJob(pool *sim.Pool, p *simProg, check bool) (simJob, error) {
	var j simJob
	t0 := time.Now()
	sess, _, err := pool.GetWarm(p.spec)
	if err != nil {
		return j, fmt.Errorf("%s: checkout: %w", p.name, err)
	}
	t1 := time.Now()
	res, err := sess.Run()
	t2 := time.Now()
	if err != nil {
		return j, fmt.Errorf("%s: run: %w", p.name, err)
	}
	var verifyTime time.Duration
	if check {
		err = p.verify(sess.Machine())
		verifyTime = time.Since(t2)
	}
	j.res, j.pin = res, pinOf(sess, res)
	pool.Put(sess)
	j.getWarm, j.run = t1.Sub(t0), t2.Sub(t1)
	j.total = time.Since(t0) - verifyTime
	return j, err
}

// simWarmCycles is how far the warm-up advances each program: enough
// to build the machine, fill the decode-image LRU and touch every lazy
// path, without paying a whole pass (2.9 s and 2.4 s on the reference
// host) three times per run.
const simWarmCycles = 20_000

func setupSim(workload string) (*sim.Pool, []*simProg, error) {
	progs, err := buildSimProgs(workload)
	if err != nil {
		return nil, nil, err
	}
	pool := new(sim.Pool)
	for _, p := range progs {
		sess, _, err := pool.GetWarm(p.spec)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: warm-up: %w", p.name, err)
		}
		if _, err := sess.Advance(simWarmCycles); err != nil {
			return nil, nil, fmt.Errorf("%s: warm-up: %w", p.name, err)
		}
		pool.Put(sess)
	}
	return pool, progs, nil
}

// runSimWorkload measures one sim_* workload: passes over the program
// set, back to back through one pool, until the time is up.
func runSimWorkload(o runOpts) (*runResult, error) {
	r := o.newResult()
	var (
		pool  *sim.Pool
		progs []*simProg
	)
	setup, err := timeSetups(o.setups, func() (err error) {
		pool, progs, err = setupSim(o.workload)
		return err
	}, func() {})
	if err != nil {
		return nil, err
	}
	r.BatchSize = len(progs)

	var (
		stats  batchStats
		pinned = map[string]simPin{}
		mark   = markHost()
		start  = time.Now()
	)
	for pass := 0; pass < o.minBatches || time.Since(start).Seconds() < o.seconds; pass++ {
		var passCycles uint64
		var passRun, passWall time.Duration
		var passLat []time.Duration
		for _, p := range progs {
			r.Attempted++
			j, err := runSimJob(pool, p, pass == 0)
			if err == nil {
				err = checkSimJob(o, p, j, pinned)
			}
			if err != nil {
				r.fail("pass %d: %v", pass, err)
				continue
			}
			r.OK++
			passCycles += j.res.Stats.Cycles
			passRun += j.run
			passWall += j.total
			passLat = append(passLat, j.total)
		}
		if len(passLat) == len(progs) { // a failed pass contributes no rate
			stats.add(passCycles, passRun, passWall, passLat)
		}
	}
	stats.report(r, setup, mark.since())
	for name, p := range pinned {
		r.Exact["sim."+name] = p.String()
	}
	return r, nil
}

// checkSimJob compares a job's simulated counts with the pin and with
// the same program's earlier passes (seen), and holds sim_scale1024 to
// its all-local placement.
func checkSimJob(o runOpts, p *simProg, j simJob, seen map[string]simPin) error {
	if want, ok := o.simPin(p.name); ok && !samePin(want, j.pin) {
		return fmt.Errorf("%s: %s, pinned %s", p.name, j.pin, want)
	}
	if first, ok := seen[p.name]; ok && first != j.pin {
		return fmt.Errorf("%s: %s differs from an earlier pass (%s)", p.name, j.pin, first)
	}
	if p.workload == wSimScale && j.res.Mem.SharedRemote != 0 {
		return fmt.Errorf("%s: %d routed accesses in an all-local placement", p.name, j.res.Mem.SharedRemote)
	}
	seen[p.name] = j.pin
	return nil
}

// samePin compares what a run can observe; LiveHartCycles is pinned
// for the traced run's divisor only.
func samePin(want, got simPin) bool {
	want.LiveHartCycles = 0
	return want == got
}
