// Package rpc is the wire protocol between a coordinator lbp-serve and
// its worker backends: a minimal JSON-RPC 2.0 peer over a stream
// transport, newline-delimited JSON frames on a TCP connection.
//
// A frame may carry one raw attachment: its JSON line declares
// "attach": N and exactly N bytes follow the line's newline. Params that
// implement Attacher send their bytes that way, and a handler reads its
// call's with Attachment(ctx), so a program image or a checkpoint
// crosses as itself — not base64 inside a JSON string, which costs a
// third more bytes and four scanner passes over them.
//
// The shape follows the classic bidirectional JSON-RPC split:
//
//   - The client (coordinator side) issues calls — Call multiplexes any
//     number of concurrent requests over one connection by id — and
//     receives server-initiated notifications (requests without an id),
//     which carry mid-job progress such as streamed checkpoints.
//   - The server (worker side) dispatches each incoming call to a
//     Handler in its own goroutine and can push notifications back over
//     the same connection while a call is still pending.
//
// Failure semantics are deliberately coarse, because the dispatch layer
// above needs exactly one distinction: a *Error return means the remote
// handler ran and refused (terminal — retrying elsewhere would fail the
// same way), while any other error means the transport died (the peer
// may never have seen, or may still be running, the request — the
// caller decides whether to re-dispatch). ErrClosed wraps every
// transport-death path so callers can errors.Is for it.
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
	"sync"
)

// message is one JSON-RPC frame: a request (Method set, ID set), a
// notification (Method set, ID nil) or a response (Method empty).
// Attach is the length of the raw attachment that follows the frame's
// line (0: none).
type message struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      *uint64         `json:"id,omitempty"`
	Method  string          `json:"method,omitempty"`
	Params  json.RawMessage `json:"params,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *Error          `json:"error,omitempty"`
	Attach  int             `json:"attach,omitempty"`
}

// Attacher is implemented by params that carry raw bytes: Call and
// Notify send Attachment's bytes as the frame's attachment, after its
// JSON line, so the field that holds them is left out of the JSON
// (`json:"-"`). The receiving handler reads them with Attachment, a
// client's notify callback as its third argument.
type Attacher interface {
	Attachment() []byte
}

// attachmentKey is the context key under which a handler's call carries
// its attachment.
type attachmentKey struct{}

// Attachment returns the raw bytes that arrived with the call or
// notification a handler is serving, nil if none did. Like params, they
// are good until the handler returns: one that keeps them copies them.
func Attachment(ctx context.Context) []byte {
	b, _ := ctx.Value(attachmentKey{}).([]byte)
	return b
}

// Error is a remote handler's refusal: the request was delivered and
// answered, and the answer is "no". It is terminal — unlike a transport
// error, retrying the call on another connection would refuse again.
type Error struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return fmt.Sprintf("rpc: remote error %d: %s", e.Code, e.Message) }

// JSON-RPC 2.0 predefined error codes (the subset this repo uses).
const (
	CodeParse          = -32700
	CodeInvalidRequest = -32600
	CodeMethodNotFound = -32601
	CodeInvalidParams  = -32602
	CodeInternal       = -32603
)

// ErrClosed reports that the connection died with the call outstanding:
// the remote may or may not have processed it.
var ErrClosed = errors.New("rpc: connection closed")

// MaxFrameBytes bounds one frame in either direction, its JSON line and
// its attachment together: eight times the largest HTTP request body
// (8 MiB, serve's body cap). A checkpoint crosses as a raw attachment,
// so nearly all of it is room for machine state — against 3.15 MB for a
// busy 1024-core machine (DESIGN.md §8).
const MaxFrameBytes = 64 << 20

// ErrFrameTooLarge reports a frame over MaxFrameBytes. A writer returns
// it before anything is written, so the connection stays usable; a
// reader that meets such a frame has no way to skip it and closes the
// connection.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds MaxFrameBytes")

// frameLimit is MaxFrameBytes; this package's TestMain lowers it so that
// the refusals can be exercised without 64 MiB frames.
var frameLimit = MaxFrameBytes

// errAttach reports an attachment length no frame can declare.
var errAttach = errors.New("rpc: negative attachment length")

// writeFrame sends one frame — the newline-terminated line, then att, in
// one Write (one writev on a socket); w must be guarded by the caller's
// mutex.
func writeFrame(w io.Writer, m *message, att []byte) error {
	m.JSONRPC = "2.0"
	m.Attach = len(att)
	frame := getBuffer()
	defer putBuffer(frame)
	if err := json.NewEncoder(frame).Encode(m); err != nil { // appends the newline
		return fmt.Errorf("rpc: encoding frame: %w", err)
	}
	if frame.Len()+len(att) > frameLimit {
		return ErrFrameTooLarge
	}
	var err error
	if len(att) == 0 {
		_, err = w.Write(frame.Bytes())
	} else {
		bufs := net.Buffers{frame.Bytes(), att}
		_, err = bufs.WriteTo(w)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return nil
}

// maxPooled bounds the buffers the pools keep: an ordinary job's frame
// reuses one, a checkpoint's goes to the collector.
const maxPooled = 1 << 20

// buffers holds the encodings of outgoing frames and their params,
// garbage once the frame is written, and the servers' per-call copies of
// incoming frames, garbage once the call is answered.
var buffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuffer() *bytes.Buffer { return buffers.Get().(*bytes.Buffer) }

func putBuffer(b *bytes.Buffer) {
	if b.Cap() > maxPooled {
		return
	}
	b.Reset()
	buffers.Put(b)
}

// frameReader reads the newline-terminated frames of one transport. A
// frame that fits the read buffer is decoded in place; a longer one is
// gathered in buf, which the reader keeps and grows in few, large steps
// up to the frame bound — so whatever a peer sends, the reader holds
// about one bound's worth of memory, not the doubling chain of buffers
// an unbounded decoder leaves behind.
type frameReader struct {
	br  *bufio.Reader
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// next returns the next frame's bytes, valid until the following call.
func (fr *frameReader) next() ([]byte, error) {
	fr.buf = fr.buf[:0]
	for {
		chunk, err := fr.br.ReadSlice('\n')
		need := len(fr.buf) + len(chunk)
		if need > frameLimit {
			return nil, ErrFrameTooLarge
		}
		if err == nil && len(fr.buf) == 0 {
			return chunk, nil
		}
		if need > cap(fr.buf) {
			fr.buf = append(make([]byte, 0, min(max(8*cap(fr.buf), need, 1<<20), frameLimit)), fr.buf...)
		}
		fr.buf = append(fr.buf, chunk...)
		if err == nil {
			return fr.buf, nil
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

// attachment reads the n-byte attachment of a frame whose line was
// line bytes long onto dst[:0] and returns it. The line and the
// attachment share the frame bound. The buffer grows as bytes arrive,
// in the line's large steps, so a length a peer declares and never
// sends costs at most the first step.
func (fr *frameReader) attachment(dst []byte, line, n int) ([]byte, error) {
	switch {
	case n < 0:
		return nil, errAttach
	case n > frameLimit-line: // not line+n, which a huge n overflows
		return nil, ErrFrameTooLarge
	}
	dst = dst[:0]
	for len(dst) < n {
		if len(dst) == cap(dst) {
			dst = append(make([]byte, 0, min(max(8*cap(dst), 64<<10), n)), dst...)
		}
		k, err := fr.br.Read(dst[len(dst):min(cap(dst), n)])
		dst = dst[:len(dst)+k]
		if err != nil && len(dst) < n {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return dst, nil
}

// Conn is the client side of one connection. It is safe for concurrent
// use: any number of goroutines may Call at once.
type Conn struct {
	c   net.Conn
	wmu sync.Mutex // serializes frame writes

	mu     sync.Mutex
	calls  map[uint64]chan *message
	nextID uint64
	err    error // set once the read loop exits
	closed chan struct{}

	notify func(method string, params json.RawMessage, attach []byte)
}

// Dial connects to a server. The notify callback, when non-nil,
// receives server-initiated notifications, with the frame's attachment
// (nil if none); it runs on the read loop, so it must not block (hand
// off long work to another goroutine), and attach is good until it
// returns: the read loop reuses its buffer.
func Dial(addr string, notify func(method string, params json.RawMessage, attach []byte)) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc, notify), nil
}

// NewConn wraps an established transport as a client connection.
func NewConn(nc net.Conn, notify func(method string, params json.RawMessage, attach []byte)) *Conn {
	c := &Conn{
		c:      nc,
		calls:  make(map[uint64]chan *message),
		closed: make(chan struct{}),
		notify: notify,
	}
	go c.readLoop()
	return c
}

// readLoop demultiplexes responses to their pending calls and routes
// notifications to the handler, until the transport dies. A response's
// attachment is read and dropped: no method answers with one.
func (c *Conn) readLoop() {
	fr := newFrameReader(c.c)
	var buf []byte // the attachments', reused frame to frame
	for {
		var m message
		var att []byte
		frame, err := fr.next()
		if err == nil {
			err = json.Unmarshal(frame, &m)
		}
		if err == nil && m.Attach != 0 {
			att, err = fr.attachment(buf, len(frame), m.Attach)
			buf = att
		}
		if err != nil {
			c.fail(err)
			return
		}
		switch {
		case m.Method != "" && m.ID == nil:
			if c.notify != nil {
				c.notify(m.Method, m.Params, att)
			}
		case m.Method == "" && m.ID != nil:
			c.mu.Lock()
			ch := c.calls[*m.ID]
			delete(c.calls, *m.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- &m
			}
		default:
			// A server calling methods on us is outside this protocol;
			// drop the frame rather than wedge the connection.
		}
	}
}

// fail marks the connection dead and wakes every pending call.
func (c *Conn) fail(cause error) {
	c.mu.Lock()
	if c.err == nil {
		switch {
		case cause == nil || errors.Is(cause, io.EOF):
			c.err = ErrClosed
		case errors.Is(cause, ErrClosed): // a failed write, already wrapped
			c.err = cause
		default:
			c.err = fmt.Errorf("%w: %v", ErrClosed, cause)
		}
		close(c.closed)
	}
	pending := c.calls
	c.calls = make(map[uint64]chan *message)
	c.mu.Unlock()
	c.c.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// Close tears down the connection; pending calls return ErrClosed.
func (c *Conn) Close() error {
	c.fail(nil)
	return nil
}

// Err returns the terminal connection error, nil while it is alive.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Closed is closed once the connection has died.
func (c *Conn) Closed() <-chan struct{} { return c.closed }

// Call invokes method on the peer and decodes the result into result
// (which may be nil to discard it). A *Error return is the remote
// handler's refusal; ErrFrameTooLarge means nothing was sent and the
// connection lives on; any other error wraps ErrClosed (transport death)
// or is the context's. On ctx expiry the call is abandoned — the remote
// may still be running it; protocol-level cancellation is the caller's
// business (see dispatch's cancel notifications).
func (c *Conn) Call(ctx context.Context, method string, params, result any) error {
	raw, buf, err := marshalParams(params)
	if err != nil {
		return err
	}
	ch := make(chan *message, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		putBuffer(buf)
		return err
	}
	c.nextID++
	id := c.nextID
	c.calls[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err = writeFrame(c.c, &message{ID: &id, Method: method, Params: raw}, attachmentOf(params))
	c.wmu.Unlock()
	putBuffer(buf)
	if err != nil {
		c.mu.Lock()
		delete(c.calls, id)
		c.mu.Unlock()
		if errors.Is(err, ErrClosed) {
			c.fail(err)
		}
		return err
	}

	select {
	case m, ok := <-ch:
		if !ok {
			return c.Err()
		}
		if m.Error != nil {
			return m.Error
		}
		if result != nil && len(m.Result) > 0 {
			if err := json.Unmarshal(m.Result, result); err != nil {
				return fmt.Errorf("rpc: decoding %s result: %w", method, err)
			}
		}
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.calls, id)
		c.mu.Unlock()
		return ctx.Err()
	}
}

// Notify sends a fire-and-forget notification to the peer.
func (c *Conn) Notify(method string, params any) error {
	raw, buf, err := marshalParams(params)
	if err != nil {
		return err
	}
	defer putBuffer(buf)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return writeFrame(c.c, &message{Method: method, Params: raw}, attachmentOf(params))
}

// attachmentOf returns the bytes params carry as an Attacher, or nil.
func attachmentOf(params any) []byte {
	if a, ok := params.(Attacher); ok {
		return a.Attachment()
	}
	return nil
}

// marshalParams encodes params into a pooled buffer; the bytes are
// good until the caller returns buf with putBuffer.
func marshalParams(params any) (raw json.RawMessage, buf *bytes.Buffer, err error) {
	buf = getBuffer()
	if params == nil {
		return nil, buf, nil
	}
	if err := json.NewEncoder(buf).Encode(params); err != nil {
		putBuffer(buf)
		return nil, nil, fmt.Errorf("rpc: encoding params: %w", err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), buf, nil
}

// Handler dispatches one incoming call. The returned value is encoded
// as the result; a *Error return travels verbatim, any other error
// becomes a CodeInternal *Error. ctx is canceled when the connection
// dies, so long-running handlers stop working for a peer that will
// never read the answer, and carries the call's attachment
// (Attachment). params alias the frame's buffer, which is reused once
// the call is answered: a handler that keeps them past its return
// copies them.
type Handler interface {
	ServeRPC(ctx context.Context, conn *ServerConn, method string, params json.RawMessage) (any, error)
}

// ServerConn is the server's end of one client connection; handlers use
// it to push notifications while calls are in flight.
type ServerConn struct {
	c   net.Conn
	wmu sync.Mutex
}

// Notify pushes a notification to the connected client. ErrFrameTooLarge
// means nothing was sent and the connection lives on.
func (sc *ServerConn) Notify(method string, params any) error {
	raw, buf, err := marshalParams(params)
	if err != nil {
		return err
	}
	defer putBuffer(buf)
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return writeFrame(sc.c, &message{Method: method, Params: raw}, attachmentOf(params))
}

func (sc *ServerConn) reply(id uint64, result any, err error) error {
	m := &message{ID: &id}
	if err != nil {
		var re *Error
		if !errors.As(err, &re) {
			re = &Error{Code: CodeInternal, Message: err.Error()}
		}
		m.Error = re
	} else {
		raw, err := json.Marshal(result)
		if err != nil {
			m.Error = &Error{Code: CodeInternal, Message: fmt.Sprintf("encoding result: %v", err)}
		} else {
			m.Result = raw
		}
	}
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	err = writeFrame(sc.c, m, nil)
	if errors.Is(err, ErrFrameTooLarge) {
		// The caller still gets an answer: the refusal, in place of the
		// result that cannot cross.
		_ = writeFrame(sc.c, &message{ID: &id, Error: &Error{Code: CodeInternal, Message: err.Error()}}, nil)
	}
	return err
}

// Server accepts connections and serves calls on each.
type Server struct {
	h Handler

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	done  bool
}

// NewServer builds a server around a handler; start it with Serve.
func NewServer(h Handler) *Server { return &Server{h: h, conns: make(map[net.Conn]struct{})} }

// Serve accepts connections on l until Close. It always returns a
// non-nil error; after Close that error is net.ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = l
	s.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			nc.Close()
			return net.ErrClosed
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(nc)
	}
}

// Close stops accepting and severs every live connection (in-flight
// handler contexts cancel).
func (s *Server) Close() error {
	s.mu.Lock()
	s.done = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, nc := range conns {
		nc.Close()
	}
	return nil
}

// serveConn reads calls from one client and dispatches each to the
// handler in its own goroutine, so a long-running job never blocks a
// health probe on the same connection.
func (s *Server) serveConn(nc net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	sc := &ServerConn{c: nc}
	fr := newFrameReader(nc)
	var wg sync.WaitGroup
	for {
		frame, err := fr.next()
		if err != nil {
			break // a dead transport, or a frame that cannot be read past
		}
		// The call's own copy of the frame, from a pool: its params are
		// decoded in place, not copied out as a json.RawMessage would be.
		buf := getBuffer()
		buf.Write(frame)
		var m request
		err = json.Unmarshal(buf.Bytes(), &m)
		callCtx := ctx
		if err == nil && m.Attach != 0 {
			// The call's own attachment, past the frame's line.
			var att []byte
			if att, err = fr.attachment(nil, buf.Len(), m.Attach); err == nil {
				callCtx = context.WithValue(ctx, attachmentKey{}, att)
			}
		}
		if err != nil {
			putBuffer(buf)
			break
		}
		if m.Method == "" {
			putBuffer(buf)
			continue // a stray response; nothing to do with it
		}
		wg.Add(1)
		go func(ctx context.Context, m request, buf *bytes.Buffer) {
			defer wg.Done()
			defer putBuffer(buf)
			res, err := s.h.ServeRPC(ctx, sc, m.Method, json.RawMessage(m.Params))
			if m.ID != nil {
				_ = sc.reply(*m.ID, res, err)
			}
		}(callCtx, m, buf)
	}
	cancel()
	nc.Close()
	wg.Wait()
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
}

// request is a frame as the server reads it: a message whose params
// (and result, which the server ignores) alias the frame instead of
// being copied out of it. The outer fields shadow message's.
type request struct {
	message
	Params inPlace `json:"params,omitempty"`
	Result inPlace `json:"result,omitempty"`
}

// inPlace is a JSON value kept as the bytes it was decoded from.
type inPlace []byte

func (p *inPlace) UnmarshalJSON(b []byte) error {
	*p = b
	return nil
}
