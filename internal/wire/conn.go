package wire

import (
	"context"
	"errors"
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

// dialer is the connecting side's lifecycle under both Push and Caller:
// lazy connect, a lost connect race settled in the winner's favour, refusal
// once closed, a failed connection forgotten only while it is still current.
type dialer struct {
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

// connect returns the current connection, dialing when there is none; fresh
// reports that this call installed it (Caller starts one reader for each).
func (d *dialer) connect(ctx context.Context) (conn net.Conn, fresh bool, err error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, false, ErrClosed
	}
	if d.conn != nil {
		conn := d.conn
		d.mu.Unlock()
		return conn, false, nil
	}
	d.mu.Unlock()

	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	conn, err = d.transport.Dial(d.address)
	if err != nil {
		return nil, false, err
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		conn.Close()
		return nil, false, ErrClosed
	}
	if d.conn != nil {
		// Lost a connect race with another sender; use the winner.
		conn.Close()
		return d.conn, false, nil
	}
	d.conn = conn
	return conn, true, nil
}

// write encodes m into the scratch buffer and writes it to conn.
func (d *dialer) write(conn net.Conn, m Message) (err error) {
	d.writeMu.Lock()
	d.scratch, err = writeMessageBuf(conn, m, d.scratch)
	d.writeMu.Unlock()
	return err
}

// dropLocked closes a failed connection and reports whether it was still
// current (and is now forgotten, so the next use redials); d.mu is held, so
// the socket can fail what rode on it in the same critical section.
func (d *dialer) dropLocked(conn net.Conn) bool {
	conn.Close()
	if d.conn != conn {
		return false
	}
	d.conn = nil
	return true
}

// closeLocked closes the dialer and its connection; d.mu is held.
func (d *dialer) closeLocked() {
	d.closed = true
	if d.conn != nil {
		d.conn.Close()
		d.conn = nil
	}
}

// retryWait is the dialing side's one backoff: it sleeps *delay (backoffMin
// at first) before the next attempt and doubles it toward backoffMax, or
// returns ctx's error if ctx ends first. What else ends the retrying is the
// socket's: nothing for Push, a budget of attempts for Caller.
func retryWait(ctx context.Context, delay *time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(*delay):
	}
	if *delay *= 2; *delay > backoffMax {
		*delay = backoffMax
	}
	return nil
}

// acceptor is the listening side's lifecycle under both Pull and Responder:
// one accept loop, every connection tracked, and a Close that joins every
// goroutine started on the socket's behalf.
type acceptor struct {
	ln net.Listener
	// ctx ends at Close; done is its channel, selected on per message.
	ctx    context.Context
	cancel context.CancelFunc
	done   <-chan struct{}
	// wg joins the accept loop, every serve call and whatever a serve call
	// adds while it runs (Responder's per-request goroutines).
	wg sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// listen binds at port (0 = ephemeral) and starts accepting; serve runs once
// per connection, on its own goroutine, until it is done with it.
func (a *acceptor) listen(t Transport, port int, serve func(net.Conn)) (err error) {
	if a.ln, err = t.Listen(port); err != nil {
		return err
	}
	a.ctx, a.cancel = context.WithCancel(context.Background())
	a.done = a.ctx.Done()
	a.conns = make(map[net.Conn]struct{})
	a.wg.Add(1)
	go a.acceptLoop(serve)
	return nil
}

func (a *acceptor) acceptLoop(serve func(net.Conn)) {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			return
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			conn.Close()
			return
		}
		a.conns[conn] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go func() {
			defer a.wg.Done()
			serve(conn)
			conn.Close()
			a.mu.Lock()
			delete(a.conns, conn)
			a.mu.Unlock()
		}()
	}
}

// Addr reports the bound listener address.
func (a *acceptor) Addr() net.Addr { return a.ln.Addr() }

// Close stops accepting, ends ctx, disconnects every peer and waits for
// the accept loop, every serve call and every goroutine they added.
func (a *acceptor) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	a.cancel()
	for conn := range a.conns {
		conn.Close()
	}
	a.mu.Unlock()
	err := a.ln.Close()
	a.wg.Wait()
	return err
}
