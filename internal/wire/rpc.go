package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// RPC framing: a request is [8-byte id][application parts...]; a response is
// [8-byte id][1-byte status][application parts... | error string]. Requests
// from one Caller multiplex over a single connection, so a slow call does
// not block later calls — the responder handles each request in its own
// goroutine, which is what lets stateless services process frames from
// multiple pipelines concurrently.
const (
	statusOK  = 0
	statusErr = 1
)

// RemoteError is an application error returned by a responder's handler,
// carried back to the caller.
type RemoteError struct {
	// Msg is the handler's error text.
	Msg string
}

// Error satisfies the error interface.
func (e *RemoteError) Error() string { return "wire: remote error: " + e.Msg }

// Per-call resilience defaults. A mid-call link failure must surface as an
// error within the deadline rather than stranding the caller until the link
// heals; the retry budget bounds reconnect attempts so a dead peer fails
// fast instead of spinning on backoff.
const (
	// DefaultCallTimeout bounds one Call end to end, attempts included.
	DefaultCallTimeout = 10 * time.Second
	// DefaultRetryBudget is the maximum connection attempts per Call.
	DefaultRetryBudget = 8
)

// Caller is the requesting side of the service-call path. It multiplexes
// concurrent in-flight calls over one connection and reconnects after
// failures, bounded by a per-call deadline and retry budget.
type Caller struct {
	dialer

	// mu (the dialer's) also guards the call table, so a dropped
	// connection and the calls riding on it fail in one critical section.
	pending     map[uint64]chan callResult
	nextID      uint64
	callTimeout time.Duration
	retryBudget int
}

type callResult struct {
	msg Message
	err error
}

// DialCaller creates a caller that will connect to address on first use,
// with the default per-call deadline and retry budget.
func DialCaller(t Transport, address string) *Caller {
	return &Caller{
		dialer:      dialer{transport: t, address: address},
		pending:     make(map[uint64]chan callResult),
		callTimeout: DefaultCallTimeout,
		retryBudget: DefaultRetryBudget,
	}
}

// Address reports the remote address this caller targets.
func (c *Caller) Address() string { return c.address }

// SetCallTimeout overrides the per-call deadline; d <= 0 disables it (the
// caller's context alone bounds the call).
func (c *Caller) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.callTimeout = d
}

// SetRetryBudget overrides the per-call connection-attempt budget; n <= 0
// removes the bound (retries continue until the deadline).
func (c *Caller) SetRetryBudget(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retryBudget = n
}

// Call sends req and waits for the matching response. Concurrent calls are
// multiplexed; connection failures are retried with backoff until the
// per-call deadline, the retry budget or ctx ends the call. A *RemoteError
// return means the remote handler itself failed; a deadline failure
// satisfies errors.Is(err, context.DeadlineExceeded).
func (c *Caller) Call(ctx context.Context, req Message) (Message, error) {
	c.mu.Lock()
	timeout := c.callTimeout
	budget := c.retryBudget
	c.mu.Unlock()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	backoff := backoffMin
	attempts := 0
	for {
		resp, err := c.tryCall(ctx, req)
		if err == nil {
			return resp, nil
		}
		var remote *RemoteError
		if errors.As(err, &remote) || errors.Is(err, ErrClosed) {
			return Message{}, err
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return Message{}, c.deadlineErr(ctxErr, err)
		}
		attempts++
		if budget > 0 && attempts >= budget {
			return Message{}, fmt.Errorf("wire: call %s: retry budget exhausted after %d attempts: %w", c.address, attempts, err)
		}
		if stop := retryWait(ctx, &backoff); stop != nil {
			return Message{}, c.deadlineErr(stop, err)
		}
	}
}

// deadlineErr wraps a context failure.
func (c *Caller) deadlineErr(ctxErr, last error) error {
	if errors.Is(last, ctxErr) {
		return fmt.Errorf("wire: call %s: %w", c.address, ctxErr)
	}
	return fmt.Errorf("wire: call %s: %w (last error: %v)", c.address, ctxErr, last)
}

func (c *Caller) tryCall(ctx context.Context, req Message) (Message, error) {
	conn, fresh, err := c.connect(ctx)
	if err != nil {
		return Message{}, err
	}
	if fresh {
		go c.readLoop(conn)
	}

	ch := make(chan callResult, 1)
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}()

	// The framed request borrows req's parts — they are copied exactly
	// once, into the scratch buffer, by the encode below.
	var idPart [8]byte
	binary.BigEndian.PutUint64(idPart[:], id)
	framed := Message{Parts: append([][]byte{idPart[:]}, req.Parts...)}

	if err = c.write(conn, framed); err != nil {
		c.dropConn(conn, err)
		return Message{}, err
	}

	select {
	case res := <-ch:
		return res.msg, res.err
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

func (c *Caller) readLoop(conn net.Conn) {
	for {
		m, err := ReadMessage(conn)
		if err != nil {
			c.dropConn(conn, err)
			return
		}
		if m.Len() < 2 || len(m.Part(0)) != 8 {
			c.dropConn(conn, errors.New("wire: malformed rpc response"))
			return
		}
		id := binary.BigEndian.Uint64(m.Part(0))
		res := callResult{}
		switch m.Part(1)[0] {
		case statusOK:
			// Borrow-not-clone: the response keeps m's parts (all
			// subslices of one read buffer dedicated to this message), so
			// delivery to the waiting call costs zero copies.
			res.msg = Message{Parts: m.Parts[2:]}
		case statusErr:
			res.err = &RemoteError{Msg: m.StringPart(2)}
		default:
			res.err = fmt.Errorf("wire: unknown rpc status %d", m.Part(1)[0])
		}
		c.mu.Lock()
		ch := c.pending[id]
		c.mu.Unlock()
		if ch != nil {
			ch <- res
		}
	}
}

// dropConn tears down a failed connection and fails every pending call so
// callers can retry on a fresh connection.
func (c *Caller) dropConn(conn net.Conn, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dropLocked(conn) {
		c.failPendingLocked(fmt.Errorf("wire: connection lost: %w", cause))
	}
}

// failPendingLocked hands err to every in-flight call; c.mu is held.
func (c *Caller) failPendingLocked(err error) {
	for id, ch := range c.pending {
		select {
		case ch <- callResult{err: err}:
		default:
		}
		delete(c.pending, id)
	}
}

// Close shuts the caller down, failing in-flight and future calls.
func (c *Caller) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked()
	c.failPendingLocked(ErrClosed)
	return nil
}

// Handler processes one request message and returns the response payload.
// Handlers run concurrently; they must be safe for parallel use.
type Handler func(ctx context.Context, req Message) (Message, error)

// Responder is the serving side of the service-call path. Each accepted
// connection gets a read loop; each request runs in its own goroutine.
// Close waits for in-flight handlers to finish.
type Responder struct {
	acceptor
	handler Handler
}

// ListenResponder binds a responder at port (0 = ephemeral) serving handler.
func ListenResponder(t Transport, port int, handler Handler) (*Responder, error) {
	if handler == nil {
		return nil, errors.New("wire: nil handler")
	}
	r := &Responder{handler: handler}
	if err := r.listen(t, port, r.serveConn); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Responder) serveConn(conn net.Conn) {
	// writeMu serializes response writes from concurrent handlers;
	// scratch is the per-connection encode buffer it guards.
	var writeMu sync.Mutex
	var scratch []byte
	// Handlers see a context that ends when their caller disconnects or
	// the responder closes, whichever is first.
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	for {
		m, err := ReadMessage(conn)
		if err != nil {
			return
		}
		if m.Len() < 1 || len(m.Part(0)) != 8 {
			return
		}
		// Borrow-not-clone: the handler's request keeps m's parts (one
		// read buffer per message, never reused), so the handler may hold
		// them for the duration of the call without a defensive copy.
		id := m.Part(0)
		req := Message{Parts: m.Parts[1:]}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			resp, herr := r.handler(ctx, req)
			out := Message{Parts: make([][]byte, 0, 2+resp.Len())}
			out.Parts = append(out.Parts, id)
			if herr != nil {
				out.Parts = append(out.Parts, []byte{statusErr}, []byte(herr.Error()))
			} else {
				out.Parts = append(out.Parts, []byte{statusOK})
				out.Parts = append(out.Parts, resp.Parts...)
			}
			writeMu.Lock()
			defer writeMu.Unlock()
			// Best effort: a broken connection is detected by the read loop.
			scratch, _ = writeMessageBuf(conn, out, scratch)
		}()
	}
}
