package frame

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// BufferPool recycles byte buffers across frames and across everything else
// a remote hop touches: pixel buffers, the wire layer's received message
// bodies and netsim's in-flight chunks. Steady-state pipeline traffic asks
// for the same handful of sizes thousands of times per run, and
// flow-control credits bound how many are out at once, so recycling drops
// the data plane's per-frame allocation to ~zero (MediaPipe's packet pools
// and NNStreamer's on-device zero-copy paths make the same trade).
//
// Each size class keeps a mutex-guarded LIFO free list. Unlike a sync.Pool
// it survives garbage collections and does not care which P a buffer was
// returned on, so whether a Get hits depends only on the Gets and Puts
// before it — per-frame allocation is a property of the traffic, not of
// when the collector last ran.
//
// Classes are a quarter octave apart (64, 80, 96, 112, 128, 160, ... bytes),
// so a buffer is at most 25% larger than the request: a 640x480 RGBA frame
// (1228800 B) draws from the 1.25 MiB class. A Get may therefore return a
// slice with extra capacity; its length is exactly the requested size.
//
// Retention is bounded two ways. A class never holds more than
// classRetainBytes of free buffers (a Put beyond that is dropped for the
// collector, so classes larger than the cap retain nothing), and it only
// ever holds buffers the traffic itself once had out at the same time, plus
// one: the first time a buffer comes back to a dry class of at least
// spareMinSize it is given a twin, so the first time two frames overlap —
// which a one-frame-at-a-time pipeline does at some random second of a run
// — costs nothing. After that a class grows only by misses (population <=
// high-water + 1) or by an owner that knows its demand calling Reserve.
//
// Ownership rules (see DESIGN.md "Buffer ownership"):
//
//   - Frames built by NewPooled/MustNewPooled (and Clone, FromImage, the
//     codec Decode paths) carry a pooled buffer. Whoever holds the last
//     reference to such a frame should call Release to recycle it.
//   - Release is mandatory only for correctness of the *pool hit rate*,
//     never for memory safety: a frame dropped without Release is simply
//     collected by the GC and the pool misses once more later.
//   - Releasing twice panics — that is a real ownership bug (some other
//     holder may already be writing into the recycled buffer).
//   - After Release the frame's Pix is nil, so stale readers observe an
//     empty frame rather than another frame's pixels.
type BufferPool struct {
	classes [poolClasses]sizeClass
	hits    atomic.Uint64
	misses  atomic.Uint64
	// puts counts buffers taken back (kept or dropped over the retention
	// cap); hits+misses-puts is the number outstanding.
	puts atomic.Uint64
}

// sizeClass is one free list. free is a stack: the buffer returned last is
// the one handed out next, while its lines are still in cache.
type sizeClass struct {
	mu   sync.Mutex
	free [][]byte
	// spared records that the class's one spare has been stocked.
	spared bool
}

const (
	// poolMinShift..poolMaxShift cover 64 B through 256 MiB, the
	// frame-dimension cap enforced by New, four classes to the octave.
	poolMinShift = 6
	poolMaxShift = 28
	poolClasses  = (poolMaxShift-poolMinShift)*4 + 1

	// classRetainBytes caps the free bytes one class keeps: 12 VGA frames,
	// 21 at the default 480x360, one 1080p pair — and nothing of a body or
	// frame larger than the cap itself.
	classRetainBytes = 16 << 20
	// spareMinSize is the smallest class that stocks a spare. Below it a
	// miss is cheaper than holding a second buffer for every size that was
	// ever asked for once.
	spareMinSize = 64 << 10
)

// classCap is the buffer capacity of class idx: (4 + idx%4) quarters of the
// octave idx/4 above 64 B.
func classCap(idx int) int { return (4 + idx%4) << (poolMinShift - 2 + idx/4) }

// classFor returns the index and capacity of the smallest class holding
// size bytes, or -1 when size is out of pooling range.
func classFor(size int) (idx, capacity int) {
	if size <= 0 || size > 1<<poolMaxShift {
		return -1, 0
	}
	if size > 1<<poolMinShift {
		// 2^o < size <= 2^(o+1), in steps of a quarter of 2^o.
		o := bits.Len(uint(size-1)) - 1
		step := 1 << (o - 2)
		idx = (o-poolMinShift)*4 + (size-1<<o+step-1)/step
	}
	return idx, classCap(idx)
}

// GetDirty returns a byte slice of exactly the given length, recycled when
// the size's class has a free buffer, without a zero fill: a recycled
// buffer still holds its previous owner's bytes, so the caller must overwrite every byte it will
// read (Clone, the decoders, a wire body about to be filled by ReadFull)
// and in exchange skips a memset as large as the copy it is about to do.
func (p *BufferPool) GetDirty(size int) []byte { return p.get(size, false) }

// get is GetDirty, zero-filled when zero is set (NewPooled's frames).
func (p *BufferPool) get(size int, zero bool) []byte {
	idx, capacity := classFor(size)
	if idx < 0 {
		p.misses.Add(1)
		return make([]byte, size)
	}
	c := &p.classes[idx]
	c.mu.Lock()
	if n := len(c.free); n > 0 {
		buf := c.free[n-1][:size]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		c.mu.Unlock()
		p.hits.Add(1)
		if zero {
			clear(buf)
		}
		return buf
	}
	c.mu.Unlock()
	p.misses.Add(1)
	return make([]byte, size, capacity)
}

// Put recycles a buffer obtained from GetDirty. Buffers whose capacity is not
// exactly a class size (foreign slices) are ignored; a buffer that would
// take its class over classRetainBytes is counted as returned and dropped.
func (p *BufferPool) Put(buf []byte) {
	idx, capacity := classFor(cap(buf))
	if idx < 0 || capacity != cap(buf) {
		return
	}
	p.puts.Add(1)
	c := &p.classes[idx]
	c.mu.Lock()
	if !c.spared && len(c.free) == 0 && capacity >= spareMinSize && 2*capacity <= classRetainBytes {
		// The first time a buffer comes back to a dry class it gets a
		// twin, beneath it (the returned one is warm). On Put rather than
		// on the miss, so a buffer that never comes back stocks nothing.
		c.spared = true
		c.free = append(c.free, make([]byte, capacity))
	}
	if (len(c.free)+1)*capacity <= classRetainBytes {
		c.free = append(c.free, buf[:capacity])
	}
	c.mu.Unlock()
}

// Reserve stocks size's class until n buffers are free, or the retention
// cap is reached. It is for an owner that knows its demand: a pipeline's
// flow-control window bounds the frames it can have out at once, so it
// reserves that many as frames are admitted, and the burst that first fills
// the window finds its buffers waiting instead of allocating them at
// whatever second of the run the burst happens.
func (p *BufferPool) Reserve(size, n int) {
	idx, capacity := classFor(size)
	if idx < 0 {
		return
	}
	c := &p.classes[idx]
	c.mu.Lock()
	for len(c.free) < n && (len(c.free)+1)*capacity <= classRetainBytes {
		c.free = append(c.free, make([]byte, capacity))
	}
	c.mu.Unlock()
}

// Stats reports cumulative pool hits and misses — the frame.pool.hit /
// frame.pool.miss counters surfaced by vpbench.
func (p *BufferPool) Stats() (hits, misses uint64) {
	return p.hits.Load(), p.misses.Load()
}

// Outstanding reports how many buffers are out with callers: Gets minus
// Puts. Tests difference it around an operation to show every borrower on
// every path gave its buffer back (or, for a leak, exactly how many did
// not).
func (p *BufferPool) Outstanding() int64 {
	return int64(p.hits.Load()+p.misses.Load()) - int64(p.puts.Load())
}

// Retained reports the bytes sitting in the free lists — memory the pool
// keeps from the collector.
func (p *BufferPool) Retained() int64 {
	var n int64
	for i := range p.classes {
		c := &p.classes[i]
		c.mu.Lock()
		n += int64(len(c.free)) * int64(classCap(i))
		c.mu.Unlock()
	}
	return n
}

// Pool is the process-wide frame buffer pool used by NewPooled, Clone and
// the codec decode paths.
var Pool = &BufferPool{}

// PoolStats reports the global pool's hit/miss counters.
func PoolStats() (hits, misses uint64) { return Pool.Stats() }

// NewPooled is New with the pixel buffer drawn from the global BufferPool.
// The caller owns the frame; call Release when done to recycle the buffer.
func NewPooled(width, height int) (*Frame, error) {
	return newPooled(width, height, true)
}

func newPooled(width, height int, zero bool) (*Frame, error) {
	if width <= 0 || height <= 0 || width*height > 64<<20 {
		return nil, badDimensions(width, height)
	}
	return &Frame{
		Width:  width,
		Height: height,
		Pix:    Pool.get(width*height*4, zero),
		pooled: true,
	}, nil
}

// MustNewPooled is NewPooled for dimensions known to be valid.
func MustNewPooled(width, height int) *Frame {
	return mustFrame(NewPooled(width, height))
}

// newPooledDirty is MustNewPooled minus the zero fill: the pixels are
// whatever the buffer's previous owner left, so the caller must write all
// of them.
func newPooledDirty(width, height int) *Frame {
	return mustFrame(newPooled(width, height, false))
}

func mustFrame(f *Frame, err error) *Frame {
	if err != nil {
		panic(err)
	}
	return f
}

// Release returns the frame's pixel buffer to the pool and poisons the
// frame against further use. Releasing the same frame twice panics: a
// double release means two owners both believed they held the last
// reference, and the second could be recycling a buffer already handed to
// a new frame. Release on a frame not drawn from the pool is a valid no-op
// (beyond the poisoning), so ownership rules stay uniform.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	if !atomic.CompareAndSwapInt32(&f.released, 0, 1) {
		panic("frame: double Release (seq " + itoa(f.Seq) + ")")
	}
	if f.pooled && f.Pix != nil {
		Pool.Put(f.Pix)
	}
	f.Pix = nil
}

// Released reports whether Release has been called on this frame.
func (f *Frame) Released() bool { return atomic.LoadInt32(&f.released) != 0 }

// itoa formats a uint64 without fmt, keeping Release allocation-free off
// the panic path.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
