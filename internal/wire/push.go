package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
)

// Push is a one-way sending socket, the PUSH half of the module data path.
// It lazily connects to its peer and transparently reconnects after
// failures. Send blocks until the message is handed to the transport,
// matching the paper's queue-free design: the pipeline's flow control, not
// socket buffering, decides when frames move.
type Push struct{ dialer }

// DialPush creates a push socket that will connect to address on first use.
func DialPush(t Transport, address string) *Push {
	return &Push{dialer{transport: t, address: address}}
}

// Send transfers one message, connecting or reconnecting as necessary and
// retrying with backoff until ctx is done.
func (p *Push) Send(ctx context.Context, m Message) error {
	backoff := backoffMin
	for {
		conn, _, err := p.connect(ctx)
		if err == nil {
			if err = p.write(conn, m); err == nil {
				return nil
			}
			p.mu.Lock()
			p.dropLocked(conn)
			p.mu.Unlock()
		}
		if errors.Is(err, ErrClosed) {
			return err
		}
		if stop := retryWait(ctx, &backoff); stop != nil {
			return fmt.Errorf("wire: push to %s: %w (last error: %v)", p.address, stop, err)
		}
	}
}

// Close shuts the socket down. Subsequent Sends fail with ErrClosed.
func (p *Push) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closeLocked()
	return nil
}

// Pull is the receiving half of the module data path. It binds a listener,
// accepts any number of upstream connections and fair-merges their messages
// into a single stream consumed by Recv.
type Pull struct {
	acceptor
	msgs chan Message
}

// ListenPull binds a pull socket on the transport at port (0 = ephemeral).
func ListenPull(t Transport, port int) (*Pull, error) {
	// Size one, not more: the pipeline is queue-free by design; this
	// single slot only decouples the reader goroutine from Recv.
	p := &Pull{msgs: make(chan Message, 1)}
	if err := p.listen(t, port, p.readLoop); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Pull) readLoop(conn net.Conn) {
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

// Close stops the socket, disconnects all peers and waits for their read
// loops; a message still parked for Recv is released.
func (p *Pull) Close() error {
	err := p.acceptor.Close()
	select {
	case m := <-p.msgs:
		m.Release()
	default:
	}
	return err
}
