package netsim

import (
	"io"
	"math/rand"
	"sync"
	"time"

	"videopipe/internal/frame"
)

// errTimeout is returned from Read/Write when a deadline expires. It
// satisfies net.Error.
type errTimeout struct{}

func (errTimeout) Error() string   { return "netsim: i/o timeout" }
func (errTimeout) Timeout() bool   { return true }
func (errTimeout) Temporary() bool { return true }

// errClosed is returned when operating on a closed connection.
type errClosed struct{}

func (errClosed) Error() string { return "netsim: use of closed connection" }

// chunk is a contiguous run of written bytes with a delivery time. buf is
// the pipe's private copy of one Write, borrowed from frame.Pool until the
// reader has drained it or closeRead discards it; data is the part of buf
// not yet read.
type chunk struct {
	buf     []byte
	data    []byte
	readyAt time.Time
}

// shapedPipe is a unidirectional, shaped byte stream. Writers append chunks
// whose delivery times reflect the link profile; readers block until the
// head chunk's delivery time has passed. The profile is resolved per write
// through a getter so mid-connection shaping changes (chaos latency spikes,
// loss bursts) affect established connections, not just new dials.
type shapedPipe struct {
	profile func() LinkProfile

	mu       sync.Mutex
	rng      *rand.Rand
	chunks   []chunk
	buffered int // total undelivered bytes, for write backpressure
	nextFree time.Time
	closed   bool // write side closed: readers drain then EOF
	broken   bool // reader side closed: writers fail immediately
	notify   chan struct{}

	readDeadline  time.Time
	writeDeadline time.Time
}

// maxBuffered bounds the bytes in flight in one pipe direction before
// writers block, modelling a bounded socket buffer.
const maxBuffered = 4 << 20

func newShapedPipe(profile func() LinkProfile, seed int64) *shapedPipe {
	return &shapedPipe{
		profile: profile,
		rng:     rand.New(rand.NewSource(seed)),
		notify:  make(chan struct{}),
	}
}

// broadcast wakes all waiters; callers must hold mu.
func (p *shapedPipe) broadcast() {
	close(p.notify)
	p.notify = make(chan struct{})
}

// write appends b (copied) as a shaped chunk. It blocks while the pipe
// buffer is full.
func (p *shapedPipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed || p.broken {
			return 0, errClosed{}
		}
		if !p.writeDeadline.IsZero() && !time.Now().Before(p.writeDeadline) {
			return 0, errTimeout{}
		}
		if p.buffered < maxBuffered {
			break
		}
		p.wait(p.writeDeadline)
	}

	prof := p.profile()
	now := time.Now()
	start := now
	if p.nextFree.After(start) {
		start = p.nextFree
	}
	txEnd := start.Add(prof.txDelay(len(b)))
	p.nextFree = txEnd
	readyAt := txEnd.Add(prof.chunkDelay(p.rng))

	buf := frame.Pool.GetDirty(len(b))
	copy(buf, b)
	p.chunks = append(p.chunks, chunk{buf: buf, data: buf, readyAt: readyAt})
	p.buffered += len(b)
	p.broadcast()
	return len(b), nil
}

// read copies delivered bytes into out, blocking until at least one byte is
// deliverable, the write side is closed and drained (io.EOF), or the read
// deadline expires.
func (p *shapedPipe) read(out []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.broken {
			return 0, errClosed{}
		}
		if !p.readDeadline.IsZero() && !time.Now().Before(p.readDeadline) {
			return 0, errTimeout{}
		}
		if len(p.chunks) > 0 {
			head := &p.chunks[0]
			now := time.Now()
			if !now.Before(head.readyAt) {
				n := copy(out, head.data)
				head.data = head.data[n:]
				p.buffered -= n
				if len(head.data) == 0 {
					frame.Pool.Put(head.buf)
					*head = chunk{}
					if len(p.chunks) == 1 {
						// Rewind rather than advance, so a pipe carrying one
						// write at a time never regrows its queue.
						p.chunks = p.chunks[:0]
					} else {
						p.chunks = p.chunks[1:]
					}
				}
				p.broadcast() // free buffer space for writers
				return n, nil
			}
			// Head not deliverable yet: wait until it is (or deadline).
			target := head.readyAt
			if !p.readDeadline.IsZero() && p.readDeadline.Before(target) {
				target = p.readDeadline
			}
			p.wait(target)
			continue
		}
		if p.closed {
			return 0, io.EOF
		}
		p.wait(p.readDeadline)
	}
}

// wait blocks until the pipe state changes or until t (if nonzero), with mu
// held on entry and exit.
func (p *shapedPipe) wait(t time.Time) {
	ch := p.notify
	p.mu.Unlock()
	defer p.mu.Lock()
	if t.IsZero() {
		<-ch
		return
	}
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ch:
	case <-timer.C:
	}
}

// closeWrite marks the write side closed; readers drain remaining chunks and
// then observe io.EOF.
func (p *shapedPipe) closeWrite() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	p.broadcast()
}

// closeRead tears the pipe down from the reader side: pending and future
// operations on either side fail.
func (p *shapedPipe) closeRead() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken {
		return
	}
	p.broken = true
	for _, c := range p.chunks {
		frame.Pool.Put(c.buf)
	}
	p.chunks = nil
	p.buffered = 0
	p.broadcast()
}

func (p *shapedPipe) setReadDeadline(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.readDeadline = t
	p.broadcast()
}

func (p *shapedPipe) setWriteDeadline(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writeDeadline = t
	p.broadcast()
}
