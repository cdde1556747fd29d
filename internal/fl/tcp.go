package fl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"fedforecaster/internal/fl/codec"
)

// TCPTransport is the distributed deployment path: clients dial the
// server (as in Flower) and serve requests as length-prefixed codec v1
// frames.
//
// Connection setup is a one-byte version handshake each way: the
// client proposes the highest wire version it can speak and the server
// answers with the version it speaks, v1. A peer proposing version 0
// (the retired gob stream) is rejected with an error naming wire v0 on
// both ends; a higher proposal settles on v1. Quantization is an
// encoder-side tier, not negotiated: each end encodes under its own
// WireOpts and any v1 decoder reads any tier.
//
// The connection table is guarded by mu: Call, NumClients, Close and
// SetCallTimeout may run concurrently (quorum broadcasts race with
// shutdown), so every access to conns/callTimeout takes the lock.
type TCPTransport struct {
	listener net.Listener
	wire     WireOpts
	mu       sync.Mutex
	conns    []*tcpConn // guarded by mu
	// callTimeout, when > 0, bounds each Call via net.Conn.SetDeadline
	// so a hung or partitioned client errors out instead of blocking a
	// round forever. guarded by mu.
	callTimeout time.Duration
}

type tcpConn struct {
	conn net.Conn
	mu   sync.Mutex
	// negotiated reports whether the version handshake has completed.
	// The server side negotiates lazily, on the first Call: the
	// handshake read is then bounded by the per-call deadline, so a
	// client that connects but never speaks (hung peer) is accepted at
	// listen time and trips ErrCallTimeout at call time. guarded by mu.
	negotiated bool
	// dead marks a connection whose stream failed. A torn codec frame
	// desynchronizes the length prefixes, so the connection is closed
	// and every later call fails fast with ErrClientDead. guarded by mu.
	dead bool
}

// markDeadLocked closes the connection and poisons it; callers hold
// c.mu.
func (c *tcpConn) markDeadLocked() {
	c.dead = true
	//lint:allow errdrop connection is being poisoned; close error adds nothing to ErrClientDead
	c.conn.Close()
}

// maxFrame bounds a frame read so a corrupt or hostile length
// prefix cannot induce an arbitrarily large allocation.
const maxFrame = 64 << 20

// Response status bytes.
const (
	statusOK  = 0
	statusErr = 1
)

// writeFrame sends one length-prefixed frame as a single write.
func writeFrame(conn net.Conn, payload []byte) error {
	buf := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := conn.Write(buf)
	return err
}

// readFrame receives one length-prefixed frame.
func readFrame(conn net.Conn) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("fl: frame length %d exceeds %d", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// ListenTCPWire starts a server transport that accepts exactly
// expectClients connections on addr (use "127.0.0.1:0" for an
// ephemeral port) within the timeout, encoding its requests under the
// given wire tier. A non-nil addrCh receives the bound address before
// the accept loop blocks — needed when clients in the same process
// must learn an ephemeral port.
func ListenTCPWire(addr string, expectClients int, timeout time.Duration, addrCh chan<- string, wire WireOpts) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fl: listen: %w", err)
	}
	if addrCh != nil {
		addrCh <- ln.Addr().String()
	}
	// The connection table is built in a local slice and the transport
	// constructed only once it is complete: the guarded conns field is
	// never touched outside its mutex, not even single-threaded setup.
	var conns []*tcpConn
	deadline := time.Now().Add(timeout)
	for len(conns) < expectClients {
		if dl, ok := ln.(*net.TCPListener); ok {
			if err := dl.SetDeadline(deadline); err != nil {
				//lint:allow errdrop accept already failed; listener close error would mask the root cause
				ln.Close()
				return nil, err
			}
		}
		conn, err := ln.Accept()
		if err != nil {
			//lint:allow errdrop accept already failed; listener close error would mask the root cause
			ln.Close()
			return nil, fmt.Errorf("fl: accept (have %d/%d clients): %w", len(conns), expectClients, err)
		}
		conns = append(conns, &tcpConn{conn: conn})
	}
	return &TCPTransport{listener: ln, wire: wire, conns: conns}, nil
}

// errWireV0 marks a handshake with a peer speaking the retired gob
// wire format (version 0).
var errWireV0 = errors.New("fl: peer speaks retired wire v0 (gob); this build speaks only codec v1")

// negotiateLocked performs the server side of the version handshake on
// first use: read the client's proposal byte and answer v1. The answer
// goes out even to a v0 proposal, so an older gob-era client fails its
// own handshake instead of waiting; the server then rejects the
// connection. Callers hold c.mu and have already bounded the
// connection with the per-call deadline.
func (c *tcpConn) negotiateLocked() error {
	var b [1]byte
	if _, err := io.ReadFull(c.conn, b[:]); err != nil {
		return fmt.Errorf("read proposal: %w", err)
	}
	if _, err := c.conn.Write([]byte{codec.Version1}); err != nil {
		return fmt.Errorf("write version: %w", err)
	}
	if b[0] < codec.Version1 {
		return errWireV0
	}
	c.negotiated = true
	return nil
}

// errHandshakeClosed marks a version handshake cut short by the
// connection closing — a clean shutdown, not a protocol violation.
var errHandshakeClosed = errors.New("fl: connection closed during handshake")

// negotiateClient performs the client side: propose the newest version
// this build speaks and require the server to answer v1. The server
// answers lazily, on its first call, so the read blocks until the
// server speaks; a connection that closes instead reports
// errHandshakeClosed.
func negotiateClient(conn net.Conn) error {
	if _, err := conn.Write([]byte{codec.MaxVersion}); err != nil {
		return fmt.Errorf("%w: %v", errHandshakeClosed, err)
	}
	var b [1]byte
	if _, err := io.ReadFull(conn, b[:]); err != nil {
		return fmt.Errorf("%w: %v", errHandshakeClosed, err)
	}
	switch b[0] {
	case codec.Version1:
		return nil
	case 0:
		return fmt.Errorf("server: %w", errWireV0)
	default:
		return fmt.Errorf("fl: server chose wire version %d above proposal %d", b[0], codec.MaxVersion)
	}
}

// Addr returns the listener address (useful with ephemeral ports).
func (t *TCPTransport) Addr() string { return t.listener.Addr().String() }

// Wire reports the transport's configured wire format — the options
// the Server bills under. Requests ship under exactly these options;
// responses are billed at the server's tier too, which matches the
// bytes shipped whenever the clients encode under the same tier (every
// engine and CLI path).
func (t *TCPTransport) Wire() WireOpts { return t.wire }

// SetCallTimeout installs a per-call deadline (0 disables). Safe to
// call concurrently with in-flight rounds; it applies from the next
// Call.
func (t *TCPTransport) SetCallTimeout(d time.Duration) {
	t.mu.Lock()
	t.callTimeout = d
	t.mu.Unlock()
}

// NumClients reports the connected client count.
func (t *TCPTransport) NumClients() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// Call sends the request to client i and waits for its reply, bounded
// by the configured call timeout. Calls to the same client serialize;
// calls to distinct clients proceed in parallel. A connection whose
// stream fails (timeout, peer death) is dropped: it is closed and every
// later call to it returns ErrClientDead immediately, so quorum rounds
// skip it without waiting.
func (t *TCPTransport) Call(i int, req Message) (Message, error) {
	t.mu.Lock()
	if i < 0 || i >= len(t.conns) {
		t.mu.Unlock()
		return Message{}, fmt.Errorf("fl: client index %d out of range", i)
	}
	c := t.conns[i]
	timeout := t.callTimeout
	opts := t.wire.codecOptions()
	t.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return Message{}, fmt.Errorf("fl: client %d: %w", i, ErrClientDead)
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.markDeadLocked()
		return Message{}, fmt.Errorf("fl: client %d: set deadline: %v: %w", i, err, ErrClientDead)
	}
	if !c.negotiated {
		if err := c.negotiateLocked(); err != nil {
			c.markDeadLocked()
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return Message{}, fmt.Errorf("fl: negotiate with client %d: %v (%w): %w", i, err, ErrCallTimeout, ErrClientDead)
			}
			return Message{}, fmt.Errorf("fl: negotiate with client %d: %w: %w", i, err, ErrClientDead)
		}
	}

	// The response frame is a status byte followed by either a codec
	// frame (statusOK) or an error string (statusErr — an
	// application-level error: the stream stays in sync and the call is
	// retryable).
	if err := writeFrame(c.conn, codec.Encode(req, opts)); err != nil {
		c.markDeadLocked()
		return Message{}, fmt.Errorf("fl: send to client %d: %v: %w", i, err, ErrClientDead)
	}
	payload, err := readFrame(c.conn)
	if err != nil {
		c.markDeadLocked()
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return Message{}, fmt.Errorf("fl: receive from client %d: %v (%w): %w", i, err, ErrCallTimeout, ErrClientDead)
		}
		return Message{}, fmt.Errorf("fl: receive from client %d: %v: %w", i, err, ErrClientDead)
	}
	if len(payload) < 1 {
		c.markDeadLocked()
		return Message{}, fmt.Errorf("fl: client %d: empty response frame: %w", i, ErrClientDead)
	}
	switch payload[0] {
	case statusErr:
		return Message{}, fmt.Errorf("fl: client %d error: %s", i, payload[1:])
	case statusOK:
		msg, err := codec.Decode(payload[1:])
		if err != nil {
			c.markDeadLocked()
			return Message{}, fmt.Errorf("fl: decode from client %d: %v: %w", i, err, ErrClientDead)
		}
		return msg, nil
	default:
		c.markDeadLocked()
		return Message{}, fmt.Errorf("fl: client %d: unknown response status %d: %w", i, payload[0], ErrClientDead)
	}
}

// Close terminates all client connections and the listener.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	conns := append([]*tcpConn(nil), t.conns...)
	ln := t.listener
	t.mu.Unlock()
	for _, c := range conns {
		c.mu.Lock()
		c.markDeadLocked()
		c.mu.Unlock()
	}
	return ln.Close()
}

// ServeTCPWire connects a client to the server at addr and serves
// requests until the connection closes or stop is closed, encoding its
// responses under the given wire tier. It returns nil on a clean
// shutdown (server closed the connection) and an error naming wire v0
// when the server speaks the retired gob format.
func ServeTCPWire(addr string, client Client, stop <-chan struct{}, wire WireOpts) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("fl: dial: %w", err)
	}
	defer conn.Close()
	if stop != nil {
		// The stop watcher must not outlive this call: a caller that never
		// closes stop (an abandoned channel, or reuse across reconnects)
		// would otherwise leak one goroutine per serve. watchDone is
		// closed on return, so the watcher always has a termination path.
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-stop:
				//lint:allow errdrop shutdown signal path; the in-flight call observes the closed socket
				conn.Close()
			case <-watchDone:
			}
		}()
	}
	if err := negotiateClient(conn); err != nil {
		if errors.Is(err, errHandshakeClosed) {
			return nil // server closed before speaking: clean shutdown
		}
		return err
	}
	return serve(conn, client, wire)
}

// serve answers requests over a codec frame stream, encoding responses
// under the client's own wire tier.
func serve(conn net.Conn, client Client, wire WireOpts) error {
	opts := wire.codecOptions()
	for {
		frame, err := readFrame(conn)
		if err != nil {
			return nil // connection closed: clean shutdown
		}
		req, err := codec.Decode(frame)
		if err != nil {
			return fmt.Errorf("fl: decode request: %w", err)
		}
		resp, derr := Dispatch(client, req)
		var payload []byte
		if derr != nil {
			payload = append([]byte{statusErr}, derr.Error()...)
		} else {
			payload = codec.AppendEncode([]byte{statusOK}, resp, opts)
		}
		if err := writeFrame(conn, payload); err != nil {
			return fmt.Errorf("fl: reply: %w", err)
		}
	}
}
