package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
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
	c, err := Dial(addr, func(method string, params json.RawMessage) {
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
	var re *Error
	if err := c.Call(ctx, "big-reply", nil, nil); !errors.As(err, &re) || !strings.Contains(re.Message, "MaxFrameBytes") {
		t.Errorf("oversize reply: %v, want a remote error naming MaxFrameBytes", err)
	}
	var refused bool
	if err := c.Call(ctx, "big-note", nil, &refused); err != nil || !refused {
		t.Errorf("oversize server notification: refused=%v err=%v, want ErrFrameTooLarge on the sender", refused, err)
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

// FuzzRPCFrame: whatever bytes arrive on a connection, the server reads
// them in bounded memory, answers or drops each frame, and is done with
// the connection once the peer is — no panic, no hang.
func FuzzRPCFrame(f *testing.F) {
	f.Add([]byte(`{"jsonrpc":"2.0","id":1,"method":"echo","params":{"k":"v"}}` + "\n"))
	f.Add([]byte(`{"jsonrpc":"2.0","method":"lbp.cancel","params":{"id":"x"}}` + "\n"))
	f.Add([]byte(`{"jsonrpc":"2.0","id":7,"result":{"status":"ok"}}` + "\n"))
	f.Add([]byte(`{"jsonrpc":"2.0","id":2,"method":"echo","params":{"image":"` + strings.Repeat("A", 1<<20) + `"}}` + "\n"))
	f.Add([]byte(`{"jsonrpc":"2.0","id":1,"method":"lbp.run","params":{"id":"x","image":"AAAAAAAA`))
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
