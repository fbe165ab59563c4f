package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// frame is one rpc frame read off the wire: the JSON line and the
// attachment that follows it.
type frame struct {
	line []byte
	msg  struct {
		ID     *uint64                    `json:"id"`
		Method string                     `json:"method"`
		Params map[string]json.RawMessage `json:"params"`
		Attach int                        `json:"attach"`
	}
	att []byte
}

// readFrame reads one frame from br.
func readFrame(t *testing.T, br *bufio.Reader) *frame {
	t.Helper()
	f := &frame{}
	var err error
	if f.line, err = br.ReadBytes('\n'); err != nil {
		t.Fatalf("reading a frame: %v", err)
	}
	if err := json.Unmarshal(f.line, &f.msg); err != nil {
		t.Fatalf("frame line %.200q: %v", f.line, err)
	}
	f.att = make([]byte, f.msg.Attach)
	if _, err := io.ReadFull(br, f.att); err != nil {
		t.Fatalf("reading a %d-byte attachment: %v", f.msg.Attach, err)
	}
	return f
}

// noBytesInLine fails t if the frame's JSON line carries a byte field
// or any run of the attachment, raw or base64.
func noBytesInLine(t *testing.T, label string, f *frame) {
	t.Helper()
	for _, key := range []string{"image", "checkpoint", "state"} {
		if _, ok := f.msg.Params[key]; ok {
			t.Errorf("%s: the JSON line has a %q field: %.200q", label, key, f.line)
		}
	}
	run := f.att[:min(len(f.att), 24)]
	if bytes.Contains(f.line, run) || bytes.Contains(f.line, []byte(base64.StdEncoding.EncodeToString(run)[:16])) {
		t.Errorf("%s: the JSON line carries attachment bytes: %.200q", label, f.line)
	}
}

// TestRunFrameCarriesBytesAsAttachment: the lbp.run frame a coordinator
// writes holds no program or checkpoint bytes in its JSON line; they
// are its attachment — the program's WriteImage output for a fresh
// job, the checkpoint (and not the image) for a resumed one.
func TestRunFrameCarriesBytesAsAttachment(t *testing.T) {
	prog, err := asm.Assemble(quickSource, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := prog.WriteImage(&img); err != nil {
		t.Fatal(err)
	}
	ckpt := []byte("LBPCKPT6 stands in for a streamed checkpoint")
	for _, tc := range []struct {
		name   string
		job    Job
		want   []byte
		resume bool
	}{
		{"fresh", Job{ID: "fresh", Key: "k", Program: prog, Cores: 1, MaxCycles: 1000}, img.Bytes(), false},
		{"resumed", Job{ID: "resumed", Key: "k", Image: img.Bytes(), Checkpoint: ckpt, Cores: 1}, ckpt, true},
	} {
		cl, sv := net.Pipe()
		r := &remote{addr: "pipe", dial: func() (net.Conn, error) { return cl, nil }}
		if err := r.connect(); err != nil {
			t.Fatal(err)
		}
		p := &pending{job: &tc.job, ctx: context.Background()}
		type answer struct {
			res *Result
			err error
		}
		answered := make(chan answer, 1)
		go func() {
			job := tc.job
			res, err := r.run(p, &job)
			answered <- answer{res, err}
		}()
		f := readFrame(t, bufio.NewReader(sv))
		if f.msg.Method != MethodRun || f.msg.ID == nil {
			t.Fatalf("%s: frame %.200q is not an lbp.run call", tc.name, f.line)
		}
		noBytesInLine(t, tc.name, f)
		if !bytes.Equal(f.att, tc.want) {
			t.Errorf("%s: attachment of %d bytes %.40q, want the %d bytes %.40q", tc.name, len(f.att), f.att, len(tc.want), tc.want)
		}
		if resume := string(f.msg.Params["resume"]) == "true"; resume != tc.resume {
			t.Errorf("%s: resume = %v in %.200q, want %v", tc.name, resume, f.line, tc.resume)
		}
		fmt.Fprintf(sv, `{"jsonrpc":"2.0","id":%d,"result":{"status":"ok"}}`+"\n", *f.msg.ID)
		if a := <-answered; a.err != nil || a.res.Status != StatusOK {
			t.Errorf("%s: run answered %+v, %v", tc.name, a.res, a.err)
		}
		r.close()
		sv.Close()
	}
}

// TestCheckpointNoteCarriesStateAsAttachment speaks the protocol to a
// Worker by hand: an lbp.run frame with the image as its attachment
// runs, and the lbp.checkpoint notifications it streams carry the
// checkpoint as their attachment, not in their JSON line.
func TestCheckpointNoteCarriesStateAsAttachment(t *testing.T) {
	_, addr := startWorker(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	img := imageOf(t, spinSource)
	fmt.Fprintf(nc, `{"jsonrpc":"2.0","id":1,"method":"lbp.run","params":{"id":"w","cores":1,"maxCycles":50000000,"checkpointEvery":16384},"attach":%d}`+"\n%s", len(img), img)
	br := bufio.NewReader(nc)
	f := readFrame(t, br)
	if f.msg.Method != MethodCheckpoint {
		t.Fatalf("first frame %.200q, want an lbp.checkpoint notification", f.line)
	}
	noBytesInLine(t, "checkpoint note", f)
	if _, err := sim.Resume(f.att, sim.ResumeSpec{}); err != nil {
		t.Errorf("the note's attachment does not restore: %v", err)
	}
	fmt.Fprintf(nc, `{"jsonrpc":"2.0","method":"lbp.cancel","params":{"id":"w"}}`+"\n")
	for f.msg.Method == MethodCheckpoint {
		f = readFrame(t, br)
	}
	var res struct {
		Result Result `json:"result"`
	}
	if err := json.Unmarshal(f.line, &res); err != nil || res.Result.Status != StatusCanceled {
		t.Errorf("the run answered %.200q (%v), want canceled", f.line, err)
	}
}

// TestBase64ImageIsRefused: a coordinator of a build from before the
// attachment sends the image base64 inside the line; a worker reads
// that job as one without a program and refuses it with a typed error
// (terminal, never retried), not a wrong answer.
func TestBase64ImageIsRefused(t *testing.T) {
	_, addr := startWorker(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	img := base64.StdEncoding.EncodeToString(imageOf(t, quickSource))
	fmt.Fprintf(nc, `{"jsonrpc":"2.0","id":1,"method":"lbp.run","params":{"id":"old","image":%q,"cores":1}}`+"\n", img)
	f := readFrame(t, bufio.NewReader(nc))
	var res struct {
		Error *rpc.Error `json:"error"`
	}
	if err := json.Unmarshal(f.line, &res); err != nil || res.Error == nil ||
		res.Error.Code != rpc.CodeInvalidParams || !strings.Contains(res.Error.Message, "decoding program image") {
		t.Errorf("an old coordinator's job answered %.200q (%v), want an invalid-params refusal decoding the image", f.line, err)
	}
}

// TestNoteStateIsTheCoordinatorsCopy: the attachment handleNote gets
// is the read loop's buffer, which the next frame overwrites; the
// checkpoint the job keeps must not change with it.
func TestNoteStateIsTheCoordinatorsCopy(t *testing.T) {
	p := &pending{}
	c := &Coordinator{pending: map[string]*pending{"job": p}}
	buf := []byte("LBPCKPT6 the first checkpoint")
	c.handleNote(MethodCheckpoint, json.RawMessage(`{"id":"job","cycle":7}`), buf)
	copy(buf, "the next frame's bytes")
	if string(p.ckpt) != "LBPCKPT6 the first checkpoint" || p.ckptAt != 7 {
		t.Errorf("the job holds %q at cycle %d, want the note's state at cycle 7", p.ckpt, p.ckptAt)
	}
}

// BenchmarkCheckpointNote streams a busy 1024-core checkpoint (the
// figure-22 scale program at its midpoint, ≈ 3.1 MB) as an
// lbp.checkpoint notification over loopback and times it until the
// coordinator holds it: encode, write, read, decode and the
// coordinator's copy. Each iteration is one call whose handler sends
// the note; the response follows the note on the stream, so the call
// returns once the read loop has stored it.
func BenchmarkCheckpointNote(b *testing.B) {
	cp := busyCheckpoint(b)
	p := &pending{}
	c := &Coordinator{pending: map[string]*pending{"job": p}}
	srv := rpc.NewServer(noteHandler(func(conn *rpc.ServerConn, cycle uint64) error {
		return conn.Notify(MethodCheckpoint, CheckpointNote{ID: "job", Cycle: cycle, State: cp})
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := rpc.Dial(ln.Addr().String(), c.handleNote)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	b.SetBytes(int64(len(cp)))
	b.ResetTimer()
	for i := range b.N {
		if err := conn.Call(context.Background(), "note", i+1, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if p.ckptAt != uint64(b.N) || !bytes.Equal(p.ckpt, cp) {
		b.Fatalf("the coordinator holds cycle %d, %d bytes; want cycle %d, the %d bytes sent", p.ckptAt, len(p.ckpt), b.N, len(cp))
	}
	b.ReportMetric(float64(len(cp)), "ckpt-bytes")
}

// noteHandler answers every call by running send with the call's
// params as the cycle.
type noteHandler func(conn *rpc.ServerConn, cycle uint64) error

func (h noteHandler) ServeRPC(_ context.Context, conn *rpc.ServerConn, _ string, params json.RawMessage) (any, error) {
	var cycle uint64
	if err := json.Unmarshal(params, &cycle); err != nil {
		return nil, err
	}
	return nil, h(conn, cycle)
}

// busyCheckpoint is the checkpoint of the figure-22 weak-scaling
// program on 1024 cores at cycle 317,606, half its run: every hart's
// chunk is written, so every bank page it touches is in the checkpoint
// (EXPERIMENTS E37, E46). The source is a copy of internal/mem's
// scaleSpec, which pins the figure's cycle anchors.
func busyCheckpoint(b *testing.B) []byte {
	b.Helper()
	const n, chunk = 1024, 64
	src := fmt.Sprintf(`
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
`, 4*n, chunk)
	opt := cc.DefaultOptions()
	opt.Cores = n
	opt.BankReserveBytes = 512
	prog, err := cc.Build(src, opt)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := sim.New(sim.Spec{Program: prog, Cores: n, MaxCycles: uint64(4*n*chunk*1000 + 1_000_000),
		Trace: sim.TraceSpec{Digest: true}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Advance(317_606); err != nil {
		b.Fatal(err)
	}
	cp, err := sess.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	return cp
}
