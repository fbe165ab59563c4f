package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoHandler implements the test server: "echo" returns its params,
// "refuse" returns a *Error, "notify" pushes k notifications back,
// "hang" blocks until its connection context cancels.
type echoHandler struct {
	hung chan struct{} // receives once hang observes its cancel
}

func (h *echoHandler) ServeRPC(ctx context.Context, conn *ServerConn, method string, params json.RawMessage) (any, error) {
	switch method {
	case "echo":
		var v map[string]any
		if err := json.Unmarshal(params, &v); err != nil {
			return nil, &Error{Code: CodeInvalidParams, Message: err.Error()}
		}
		return v, nil
	case "refuse":
		return nil, &Error{Code: 42, Message: "on principle"}
	case "boom":
		return nil, errors.New("handler exploded")
	case "notify":
		var n int
		if err := json.Unmarshal(params, &n); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if err := conn.Notify("tick", i); err != nil {
				return nil, err
			}
		}
		return n, nil
	case "hang":
		<-ctx.Done()
		if h.hung != nil {
			h.hung <- struct{}{}
		}
		return nil, ctx.Err()
	}
	return nil, &Error{Code: CodeMethodNotFound, Message: method}
}

// startServer boots a server on an ephemeral port and returns its
// address; cleanup closes it.
func startServer(t *testing.T, h Handler) (string, *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv
}

func TestCallRoundTrip(t *testing.T) {
	addr, _ := startServer(t, &echoHandler{})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var got map[string]any
	if err := c.Call(context.Background(), "echo", map[string]any{"x": "y"}, &got); err != nil {
		t.Fatal(err)
	}
	if got["x"] != "y" {
		t.Errorf("echo returned %v, want x=y", got)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	addr, _ := startServer(t, &echoHandler{})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const calls = 32
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var got map[string]any
			params := map[string]any{"i": fmt.Sprint(i)}
			if err := c.Call(context.Background(), "echo", params, &got); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if got["i"] != fmt.Sprint(i) {
				t.Errorf("call %d got %v: responses crossed", i, got)
			}
		}(i)
	}
	wg.Wait()
}

func TestRemoteErrorIsTerminal(t *testing.T) {
	addr, _ := startServer(t, &echoHandler{})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.Call(context.Background(), "refuse", nil, nil)
	var re *Error
	if !errors.As(err, &re) || re.Code != 42 {
		t.Fatalf("refuse returned %v, want *Error code 42", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Error("a remote refusal must not look like a transport death")
	}
	// A plain handler error maps to CodeInternal and the connection
	// stays usable.
	err = c.Call(context.Background(), "boom", nil, nil)
	if !errors.As(err, &re) || re.Code != CodeInternal {
		t.Fatalf("boom returned %v, want CodeInternal", err)
	}
	if err := c.Call(context.Background(), "echo", map[string]any{}, nil); err != nil {
		t.Fatalf("connection unusable after a remote error: %v", err)
	}
}

func TestNotificationsDuringCall(t *testing.T) {
	addr, _ := startServer(t, &echoHandler{})
	var mu sync.Mutex
	var ticks []int
	c, err := Dial(addr, func(method string, params json.RawMessage, _ []byte) {
		if method != "tick" {
			t.Errorf("unexpected notification %q", method)
			return
		}
		var i int
		if err := json.Unmarshal(params, &i); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		ticks = append(ticks, i)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var n int
	if err := c.Call(context.Background(), "notify", 5, &n); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("notify result = %d, want 5", n)
	}
	// The notifications were written before the response on the same
	// ordered stream, so they have all been handled by now.
	mu.Lock()
	defer mu.Unlock()
	if len(ticks) != 5 {
		t.Fatalf("received %d notifications, want 5 (%v)", len(ticks), ticks)
	}
	for i, v := range ticks {
		if v != i {
			t.Errorf("tick %d = %d: notifications reordered", i, v)
		}
	}
}

func TestServerCloseFailsPendingCalls(t *testing.T) {
	h := &echoHandler{hung: make(chan struct{}, 1)}
	addr, srv := startServer(t, h)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errc := make(chan error, 1)
	go func() { errc <- c.Call(context.Background(), "hang", nil, nil) }()
	time.Sleep(10 * time.Millisecond) // let the call reach the handler
	srv.Close()

	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("pending call returned %v, want ErrClosed", err)
	}
	// The handler's context cancels, so the worker-side job unwinds.
	select {
	case <-h.hung:
	case <-time.After(5 * time.Second):
		t.Fatal("handler context never canceled after server close")
	}
	// New calls on the dead connection refuse immediately.
	if err := c.Call(context.Background(), "echo", nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call on dead connection returned %v, want ErrClosed", err)
	}
	select {
	case <-c.Closed():
	default:
		t.Error("Closed() not signaled after transport death")
	}
}

func TestCallContextCancel(t *testing.T) {
	addr, _ := startServer(t, &echoHandler{})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- c.Call(ctx, "hang", nil, nil) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled call returned %v, want context.Canceled", err)
	}
	// The connection survives an abandoned call.
	if err := c.Call(context.Background(), "echo", map[string]any{}, nil); err != nil {
		t.Fatalf("connection unusable after abandoned call: %v", err)
	}
}

func TestClientNotification(t *testing.T) {
	// Client-to-server notifications dispatch to the handler with no
	// reply; observable via a follow-up call ordering on the stream.
	got := make(chan string, 1)
	h := handlerFunc(func(ctx context.Context, conn *ServerConn, method string, params json.RawMessage) (any, error) {
		if method == "note" {
			var s string
			json.Unmarshal(params, &s)
			got <- s
			return nil, nil
		}
		return "ok", nil
	})
	addr, _ := startServer(t, h)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Notify("note", "hello"); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "hello" {
			t.Errorf("notification carried %q, want hello", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("notification never reached the handler")
	}
}

// handlerFunc adapts a function to Handler.
type handlerFunc func(ctx context.Context, conn *ServerConn, method string, params json.RawMessage) (any, error)

func (f handlerFunc) ServeRPC(ctx context.Context, conn *ServerConn, method string, params json.RawMessage) (any, error) {
	return f(ctx, conn, method, params)
}

// TestMain runs the package's tests against a 2 MiB frame bound, set
// once before any connection exists: the refusals are the same code at
// any bound, and 64 MiB frames are not unit-test material.
func TestMain(m *testing.M) {
	frameLimit = 2 << 20
	os.Exit(m.Run())
}

// TestOversizeFrameWriteLeavesConnectionAlive: a frame over the bound is
// refused before a byte of it is written — by Call, by Notify in either
// direction and by a handler's reply, whose caller gets the refusal as
// its answer — and the same connection then completes a call.
func TestOversizeFrameWriteLeavesConnectionAlive(t *testing.T) {
	addr, _ := startServer(t, handlerFunc(func(ctx context.Context, conn *ServerConn, method string, params json.RawMessage) (any, error) {
		switch method {
		case "big-reply":
			return strings.Repeat("A", frameLimit), nil
		case "big-note":
			err := conn.Notify("tick", strings.Repeat("A", frameLimit))
			return errors.Is(err, ErrFrameTooLarge), nil
		case "big-attached-note":
			err := conn.Notify("tick", attached{Data: make([]byte, frameLimit)})
			return errors.Is(err, ErrFrameTooLarge), nil
		}
		return "pong", nil
	}))
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	big := strings.Repeat("A", frameLimit)
	if err := c.Call(ctx, "echo", big, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize Call: %v, want ErrFrameTooLarge", err)
	}
	if err := c.Notify("echo", big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize Notify: %v, want ErrFrameTooLarge", err)
	}
	// An attachment counts against the same bound as the line it follows.
	over := attached{Data: make([]byte, frameLimit-20)} // the line is longer than 20 bytes
	if err := c.Call(ctx, "echo", over, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("Call whose attachment overflows the bound: %v, want ErrFrameTooLarge", err)
	}
	if err := c.Notify("echo", over); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("Notify whose attachment overflows the bound: %v, want ErrFrameTooLarge", err)
	}
	var re *Error
	if err := c.Call(ctx, "big-reply", nil, nil); !errors.As(err, &re) || !strings.Contains(re.Message, "MaxFrameBytes") {
		t.Errorf("oversize reply: %v, want a remote error naming MaxFrameBytes", err)
	}
	var refused bool
	if err := c.Call(ctx, "big-note", nil, &refused); err != nil || !refused {
		t.Errorf("oversize server notification: refused=%v err=%v, want ErrFrameTooLarge on the sender", refused, err)
	}
	if err := c.Call(ctx, "big-attached-note", nil, &refused); err != nil || !refused {
		t.Errorf("oversize server notification attachment: refused=%v err=%v, want ErrFrameTooLarge on the sender", refused, err)
	}
	var pong string
	if err := c.Call(ctx, "ping", nil, &pong); err != nil || pong != "pong" {
		t.Errorf("call after the refusals: %q, %v; the connection must have survived them", pong, err)
	}
}

// TestOversizeFrameReadClosesConnection: a peer that sends an
// unterminated frame past the bound is cut off — the server closes the
// connection and keeps serving others; a client fails its pending calls
// with an error that wraps ErrClosed and names the cause.
func TestOversizeFrameReadClosesConnection(t *testing.T) {
	hostile := append([]byte(`{"jsonrpc":"2.0","id":1,"method":"lbp.run","params":{"id":"x","image":"`),
		bytes.Repeat([]byte("A"), 4*frameLimit)...)

	addr, _ := startServer(t, &echoHandler{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	go nc.Write(hostile) // may fail midway: the server stops reading
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("server kept the connection open after an oversize frame (read: %v)", err)
	}
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out map[string]any
	if err := c.Call(context.Background(), "echo", map[string]any{"k": "v"}, &out); err != nil || out["k"] != "v" {
		t.Errorf("second connection: %v, %v; the server must still be serving", out, err)
	}

	cl, sv := net.Pipe()
	defer sv.Close()
	conn := NewConn(cl, nil)
	go func() {
		bufio.NewReader(sv).ReadBytes('\n') // the call's own frame
		sv.Write(hostile)
	}()
	err = conn.Call(context.Background(), "echo", nil, nil)
	if !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "MaxFrameBytes") {
		t.Errorf("client call across an oversize response: %v, want ErrClosed naming MaxFrameBytes", err)
	}
}

// attached is params with an attachment.
type attached struct {
	Name string `json:"name"`
	Data []byte `json:"-"`
}

func (a attached) Attachment() []byte { return a.Data }

// TestAttachmentRoundTrip: an Attacher's bytes cross after the JSON
// line, not in it, and arrive unchanged in every direction — a call's
// to its handler, a client notification's to its handler, a server
// notification's to the notify callback.
func TestAttachmentRoundTrip(t *testing.T) {
	data := make([]byte, 300<<10) // past the 64 KiB first step of the reader
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	noted := make(chan []byte, 1)
	addr, _ := startServer(t, handlerFunc(func(ctx context.Context, conn *ServerConn, method string, params json.RawMessage) (any, error) {
		att := Attachment(ctx)
		if bytes.Contains(params, []byte("data")) || bytes.Contains(params, []byte(`"attach"`)) {
			return nil, fmt.Errorf("params carry the attachment: %.80s", params)
		}
		switch method {
		case "check":
			return bytes.Equal(att, data), nil
		case "note":
			noted <- bytes.Clone(att)
			return nil, nil
		case "notify-back":
			return nil, conn.Notify("back", attached{Name: "back", Data: data})
		case "plain":
			return att == nil, nil
		}
		return nil, &Error{Code: CodeMethodNotFound, Message: method}
	}))
	back := make(chan []byte, 1)
	c, err := Dial(addr, func(method string, params json.RawMessage, att []byte) {
		back <- bytes.Clone(att)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	var ok bool
	if err := c.Call(ctx, "check", attached{Name: "x", Data: data}, &ok); err != nil || !ok {
		t.Errorf("call attachment: equal=%v err=%v", ok, err)
	}
	if err := c.Call(ctx, "plain", attached{Name: "x"}, &ok); err != nil || !ok {
		t.Errorf("an empty attachment must arrive as none: nil=%v err=%v", ok, err)
	}
	if err := c.Notify("note", attached{Name: "x", Data: data}); err != nil {
		t.Fatal(err)
	}
	if got := <-noted; !bytes.Equal(got, data) {
		t.Errorf("notification attachment: %d bytes, want the %d sent", len(got), len(data))
	}
	if err := c.Call(ctx, "notify-back", nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := <-back; !bytes.Equal(got, data) {
		t.Errorf("server notification attachment: %d bytes, want the %d sent", len(got), len(data))
	}
}

// hostileAttachments are frames whose attachment a reader must refuse
// (closed: the connection ends, nothing is delivered) or read past
// (the stream stays in step: what follows is answered).
var hostileAttachments = []struct {
	name   string
	frame  string
	closed bool
	notes  []string // the attachments "note" notifications deliver
}{
	{"negative", `{"jsonrpc":"2.0","method":"note","params":{},"attach":-1}` + "\n", true, nil},
	{"a string", `{"jsonrpc":"2.0","method":"note","params":{},"attach":"3"}` + "\nabc", true, nil},
	{"a fraction", `{"jsonrpc":"2.0","method":"note","params":{},"attach":1.5}` + "\nabc", true, nil},
	{"an exponent", `{"jsonrpc":"2.0","method":"note","params":{},"attach":3e0}` + "\nabc", true, nil},
	{"past int64", `{"jsonrpc":"2.0","method":"note","params":{},"attach":99999999999999999999}` + "\n", true, nil},
	{"int64 max", `{"jsonrpc":"2.0","method":"note","params":{},"attach":9223372036854775807}` + "\n", true, nil},
	{"over the bound", fmt.Sprintf(`{"jsonrpc":"2.0","method":"note","params":{},"attach":%d}`+"\n", 2<<20), true, nil},
	{"cut short by EOF", `{"jsonrpc":"2.0","method":"note","params":{},"attach":100}` + "\nshort", true, nil},
	{"on a stray response", `{"jsonrpc":"2.0","id":7,"result":{},"attach":5}` + "\nABCDE", false, nil},
	{"on a notification", `{"jsonrpc":"2.0","method":"note","params":{},"attach":3}` + "\nxyz", false, []string{"xyz"}},
	{"zero", `{"jsonrpc":"2.0","method":"note","params":{},"attach":0}` + "\n", false, []string{""}},
}

// TestHostileAttachments: each hostile attachment, sent to a server
// and to a client, either ends the connection with nothing delivered or
// is read past with what follows answered — and a cut-off one is never
// delivered.
func TestHostileAttachments(t *testing.T) {
	if frameLimit != 2<<20 {
		t.Fatalf("the over-the-bound row declares the 2 MiB bound TestMain sets, the bound is %d", frameLimit)
	}
	const probe = `{"jsonrpc":"2.0","id":99,"method":"echo","params":{"k":"v"}}` + "\n"
	for _, tc := range hostileAttachments {
		t.Run("server/"+tc.name, func(t *testing.T) {
			notes := make(chan string, 1)
			srv := NewServer(handlerFunc(func(ctx context.Context, conn *ServerConn, method string, params json.RawMessage) (any, error) {
				if method == "note" {
					notes <- string(Attachment(ctx))
				}
				return params, nil
			}))
			cl, sv := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.serveConn(sv)
			}()
			go func() {
				cl.Write([]byte(tc.frame))
				if strings.Contains(tc.name, "EOF") {
					cl.Close()
					return
				}
				cl.Write([]byte(probe))
			}()
			cl.SetReadDeadline(time.Now().Add(5 * time.Second))
			line, err := bufio.NewReader(cl).ReadString('\n')
			switch {
			case tc.closed && (err == nil || errors.Is(err, os.ErrDeadlineExceeded)):
				t.Errorf("the server kept the connection: read %q, %v", line, err)
			case !tc.closed && (err != nil || !strings.Contains(line, `"id":99`)):
				t.Errorf("probe after the frame: %q, %v; want it answered", line, err)
			}
			cl.Close()
			<-done
			close(notes)
			checkNotes(t, notes, tc.notes)
		})
		t.Run("client/"+tc.name, func(t *testing.T) {
			notes := make(chan string, 1)
			cl, sv := net.Pipe()
			defer sv.Close()
			conn := NewConn(cl, func(method string, params json.RawMessage, att []byte) {
				notes <- string(att)
			})
			defer conn.Close()
			go func() {
				bufio.NewReader(sv).ReadBytes('\n') // the call's own frame, id 1
				sv.Write([]byte(tc.frame))
				if strings.Contains(tc.name, "EOF") {
					sv.Close()
					return
				}
				sv.Write([]byte(`{"jsonrpc":"2.0","id":1,"result":"pong"}` + "\n"))
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var pong string
			err := conn.Call(ctx, "ping", nil, &pong)
			if tc.closed != errors.Is(err, ErrClosed) || !tc.closed && pong != "pong" {
				t.Errorf("call across the frame: %q, %v; want closed=%v", pong, err, tc.closed)
			}
			conn.Close()
			close(notes)
			checkNotes(t, notes, tc.notes)
		})
	}
}

// checkNotes fails t unless the closed channel notes held want.
func checkNotes(t *testing.T, notes <-chan string, want []string) {
	t.Helper()
	var got []string
	for n := range notes {
		got = append(got, n)
	}
	if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
		t.Errorf("notes delivered with attachments %q, want %q", got, want)
	}
}

// TestOversizeAttachmentReadHoldsOneBound is the attachment twin of
// TestOversizeFrameReadClosesConnection: a server reading frames whose
// attachments claim more than is sent, or more than the bound, holds
// no more memory than the bytes that arrived — nothing is sized from a
// declared length — and one that is sent in full costs about its own
// size: one bound's worth at most.
func TestOversizeAttachmentReadHoldsOneBound(t *testing.T) {
	const slack = 256 << 10 // the reader's 64 KiB bufio buffer, a goroutine, the frame copies
	line := func(n int) string {
		return fmt.Sprintf(`{"jsonrpc":"2.0","id":1,"method":"size","params":{},"attach":%d}`+"\n", n)
	}
	atBound := frameLimit - len(line(frameLimit))
	for _, tc := range []struct {
		name     string
		declared int
		sent     int
		answered bool
		maxAlloc int
	}{
		{"over the bound", 4 * frameLimit, 4 * frameLimit, false, slack},
		{"int64 max", math.MaxInt64, 4 * frameLimit, false, slack},
		{"at the bound, cut short", atBound, 1 << 10, false, slack},
		{"at the bound, sent", atBound, atBound, true, frameLimit + frameLimit/4 + slack},
	} {
		var sizes []int
		srv := NewServer(handlerFunc(func(ctx context.Context, conn *ServerConn, method string, params json.RawMessage) (any, error) {
			sizes = append(sizes, len(Attachment(ctx)))
			return nil, nil
		}))
		cl, sv := net.Pipe()
		frame := append([]byte(line(tc.declared)), make([]byte, tc.sent)...)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.serveConn(sv)
		}()
		go io.Copy(io.Discard, cl) // the reply, if any
		cl.Write(frame)            // stops early once the server closes
		cl.Close()
		<-done
		runtime.ReadMemStats(&after)
		alloc := int(after.TotalAlloc - before.TotalAlloc)
		if alloc > tc.maxAlloc {
			t.Errorf("%s: reading allocated %d bytes, want at most %d (bound %d)", tc.name, alloc, tc.maxAlloc, frameLimit)
		}
		if got := len(sizes) == 1 && sizes[0] == tc.declared; got != tc.answered {
			t.Errorf("%s: handler saw attachments %v, want one of %d bytes: %v", tc.name, sizes, tc.declared, tc.answered)
		}
		t.Logf("%s: %d bytes declared, %d sent, %d allocated", tc.name, tc.declared, tc.sent, alloc)
	}
}

// FuzzRPCFrame: whatever bytes arrive on a connection, the server reads
// them in bounded memory, answers or drops each frame, and is done with
// the connection once the peer is — no panic, no hang.
func FuzzRPCFrame(f *testing.F) {
	f.Add([]byte(`{"jsonrpc":"2.0","id":1,"method":"echo","params":{"k":"v"}}` + "\n"))
	f.Add([]byte(`{"jsonrpc":"2.0","method":"lbp.cancel","params":{"id":"x"}}` + "\n"))
	f.Add([]byte(`{"jsonrpc":"2.0","id":7,"result":{"status":"ok"}}` + "\n"))
	f.Add([]byte(`{"jsonrpc":"2.0","id":2,"method":"echo","params":{"image":"` + strings.Repeat("A", 1<<20) + `"}}` + "\n"))
	f.Add([]byte(`{"jsonrpc":"2.0","id":1,"method":"lbp.run","params":{"id":"x","image":"AAAAAAAA`))
	f.Add([]byte(`{"jsonrpc":"2.0","id":1,"method":"lbp.run","params":{"id":"x"},"attach":8}` + "\nlbpimage" +
		`{"jsonrpc":"2.0","id":2,"method":"echo","params":{}}` + "\n"))
	for _, tc := range hostileAttachments {
		f.Add([]byte(tc.frame))
	}
	srv := NewServer(handlerFunc(func(ctx context.Context, conn *ServerConn, method string, params json.RawMessage) (any, error) {
		return params, nil
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		cl, sv := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.serveConn(sv)
		}()
		go io.Copy(io.Discard, cl) // replies
		cl.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if _, err := cl.Write(data); err != nil && !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("server stopped reading: %v", err)
		}
		cl.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("server did not finish with the connection")
		}
	})
}
