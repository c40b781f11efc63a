package netsim

import (
	"io"
	"math/rand"
	"sync"
	"time"

	"videopipe/internal/clock"
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
	readers  waker
	writers  waker

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
		readers: waker{wake: make(chan struct{}, 1)},
		writers: waker{wake: make(chan struct{}, 1)},
	}
}

// waker parks the goroutines on one side of a pipe, its readers or its
// writers, until the pipe changes, and wakes them without allocating: a
// change puts a token in the one-slot wake channel, and each goroutine that
// takes one passes it on while any goroutine parked before the change has
// not woken yet. A token sent while its waiter is between releasing mu and
// receiving waits in the slot, so no change slips past a waiter. A token
// left behind by a waiter that timed out ends the next wait early; every
// waiter re-checks its condition, so that costs one loop. Every field but
// wake is guarded by the pipe's mu.
type waker struct {
	wake   chan struct{}
	gen    uint64 // changes signalled while someone was parked
	parked int    // goroutines parked on wake
	behind int    // of those, the ones parked before the latest change
}

// signal wakes the side's parked goroutines, if any.
func (w *waker) signal() {
	if w.parked > 0 {
		w.gen++
		w.behind = w.parked
		w.post()
	}
}

// post leaves a token in the wake slot unless one is there already.
func (w *waker) post() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// broadcast wakes every parked goroutine on both sides; callers must hold
// mu. With none parked nothing is sent: the next waiter parks under mu, so
// no change it has not seen can slip past it.
func (p *shapedPipe) broadcast() {
	p.readers.signal()
	p.writers.signal()
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
		p.wait(&p.writers, p.writeDeadline)
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
			p.wait(&p.readers, target)
			continue
		}
		if p.closed {
			return 0, io.EOF
		}
		p.wait(&p.readers, p.readDeadline)
	}
}

// wait parks the calling goroutine on side w until the pipe state changes
// or until t (if nonzero), with mu held on entry and exit.
func (p *shapedPipe) wait(w *waker, t time.Time) {
	gen := w.gen
	w.parked++
	p.mu.Unlock()
	woke := false
	if t.IsZero() {
		<-w.wake
		woke = true
	} else if d := time.Until(t); d > 0 {
		woke = clock.Wait(w.wake, d)
	}
	p.mu.Lock()
	w.parked--
	if gen != w.gen {
		w.behind--
	}
	if woke && w.behind > 0 {
		w.post() // pass the change on to the next goroutine parked before it
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
