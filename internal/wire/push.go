package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed socket.
var ErrClosed = errors.New("wire: socket closed")

// reconnect backoff bounds shared by Push and Caller.
const (
	backoffMin = 2 * time.Millisecond
	backoffMax = 250 * time.Millisecond
)

// Push is a one-way sending socket, the PUSH half of the module data path.
// It lazily connects to its peer and transparently reconnects after
// failures. Send blocks until the message is handed to the transport,
// matching the paper's queue-free design: the pipeline's flow control, not
// socket buffering, decides when frames move.
type Push struct {
	transport Transport
	address   string

	mu     sync.Mutex
	conn   net.Conn
	closed bool

	// writeMu serializes encodes and writes; scratch is the per-socket
	// encode buffer it guards, reused across sends (copy elision: one
	// copy per message, into this buffer).
	writeMu sync.Mutex
	scratch []byte
}

// DialPush creates a push socket that will connect to address on first use.
func DialPush(t Transport, address string) *Push {
	return &Push{transport: t, address: address}
}

// Send transfers one message, connecting or reconnecting as necessary and
// retrying with backoff until ctx is done.
func (p *Push) Send(ctx context.Context, m Message) error {
	backoff := backoffMin
	for {
		conn, err := p.ensureConn(ctx)
		if err == nil {
			p.writeMu.Lock()
			p.scratch, err = writeMessageBuf(conn, m, p.scratch)
			p.writeMu.Unlock()
			if err == nil {
				return nil
			}
			p.dropConn(conn)
		}
		if errors.Is(err, ErrClosed) {
			return err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("wire: push to %s: %w (last error: %v)", p.address, ctx.Err(), err)
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

func (p *Push) ensureConn(ctx context.Context) (net.Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if p.conn != nil {
		conn := p.conn
		p.mu.Unlock()
		return conn, nil
	}
	p.mu.Unlock()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	conn, err := p.transport.Dial(p.address)
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		conn.Close()
		return nil, ErrClosed
	}
	if p.conn != nil {
		// Lost a connect race with another sender; use the winner.
		conn.Close()
		return p.conn, nil
	}
	p.conn = conn
	return conn, nil
}

func (p *Push) dropConn(conn net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == conn {
		p.conn = nil
	}
	conn.Close()
}

// Close shuts the socket down. Subsequent Sends fail with ErrClosed.
func (p *Push) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	return nil
}

// Pull is the receiving half of the module data path. It binds a listener,
// accepts any number of upstream connections and fair-merges their messages
// into a single stream consumed by Recv.
type Pull struct {
	ln   net.Listener
	msgs chan Message
	done chan struct{}
	// wg joins the accept loop and every read loop, so Close can hand back
	// the body of a message nobody will receive.
	wg sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// ListenPull binds a pull socket on the transport at port (0 = ephemeral).
func ListenPull(t Transport, port int) (*Pull, error) {
	ln, err := t.Listen(port)
	if err != nil {
		return nil, err
	}
	p := &Pull{
		ln: ln,
		// Size one, not more: the pipeline is queue-free by design; this
		// single slot only decouples the reader goroutine from Recv.
		msgs:  make(chan Message, 1),
		done:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

func (p *Pull) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go p.readLoop(conn)
	}
}

func (p *Pull) readLoop(conn net.Conn) {
	defer p.wg.Done()
	defer func() {
		conn.Close()
		p.mu.Lock()
		delete(p.conns, conn)
		p.mu.Unlock()
	}()
	for {
		m, err := readMessage(conn, true)
		if err != nil {
			return
		}
		select {
		case p.msgs <- m:
		case <-p.done:
			m.Release()
			return
		}
	}
}

// Recv returns the next message from any connected peer.
//
// Ownership: the message's parts borrow one buffer drawn from frame.Pool
// for this message alone — no per-part copies were made, and the buffer is
// not reused until the receiver says so. A receiver that has copied out or
// decoded what it needs calls Message.Release to recycle the buffer; one
// that keeps the parts simply never calls it and owns them indefinitely.
func (p *Pull) Recv(ctx context.Context) (Message, error) {
	select {
	case m := <-p.msgs:
		return m, nil
	case <-p.done:
		return Message{}, ErrClosed
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

// Addr reports the bound listener address.
func (p *Pull) Addr() net.Addr { return p.ln.Addr() }

// Close stops the socket, disconnects all peers and waits for their read
// loops; a message still parked for Recv is released.
func (p *Pull) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	select {
	case m := <-p.msgs:
		m.Release()
	default:
	}
	return err
}
