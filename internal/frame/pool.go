package frame

import (
	"sync"
	"sync/atomic"
)

// BufferPool recycles pixel buffers across frames. Steady-state pipeline
// traffic allocates the same handful of buffer sizes (one per camera
// resolution in play) thousands of times per run; recycling them through a
// size-bucketed sync.Pool drops the per-frame allocation cost of the data
// plane to ~zero (MediaPipe's packet pools and NNStreamer's on-device
// zero-copy paths make the same trade).
//
// Buffers are bucketed by the next power of two of their byte size, so a
// 480x360 RGBA frame (691200 B) and anything else in (512KiB, 1MiB] share
// one bucket. A Get may therefore return a slice with extra capacity; the
// returned slice's length is exactly the requested size.
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
	buckets [poolBuckets]sync.Pool // of *pooledBuf
	// spare holds empty *pooledBuf boxes between a Get and the next Put,
	// so a steady-state release allocates nothing.
	spare  sync.Pool
	hits   atomic.Uint64
	misses atomic.Uint64
	// puts counts buffers taken back; hits+misses-puts is the number
	// outstanding, which the codec tests use to show that no decode error
	// path leaks one.
	puts atomic.Uint64
}

// pooledBuf boxes a slice for sync.Pool: storing the []byte itself would
// allocate a fresh 24-byte slice header on every Put, a pointer does not.
type pooledBuf struct{ b []byte }

// poolBuckets covers 1<<6 (64 B) through 1<<28 (256 MiB), beyond the
// frame-dimension cap enforced by New.
const (
	poolMinShift = 6
	poolBuckets  = 23
)

// bucketFor returns the bucket index holding buffers of capacity 1<<shift
// >= size, or -1 when size is out of pooling range.
func bucketFor(size int) int {
	if size <= 0 {
		return -1
	}
	shift := poolMinShift
	for (1 << shift) < size {
		shift++
	}
	idx := shift - poolMinShift
	if idx >= poolBuckets {
		return -1
	}
	return idx
}

// Get returns a zeroed byte slice of exactly the given length, recycled
// when a buffer of a suitable bucket is available.
func (p *BufferPool) Get(size int) []byte { return p.get(size, true) }

// get is Get with the zero fill optional: a recycled buffer still holds its
// previous frame's pixels, and callers about to overwrite every byte
// (Clone, the decoders, FromImage) skip a memset as large as the copy they
// are about to do.
func (p *BufferPool) get(size int, zero bool) []byte {
	idx := bucketFor(size)
	if idx < 0 {
		p.misses.Add(1)
		return make([]byte, size)
	}
	if v := p.buckets[idx].Get(); v != nil {
		p.hits.Add(1)
		w := v.(*pooledBuf)
		buf := w.b[:size]
		w.b = nil
		p.spare.Put(w)
		if zero {
			clear(buf)
		}
		return buf
	}
	p.misses.Add(1)
	return make([]byte, size, 1<<(idx+poolMinShift))
}

// Put recycles a buffer obtained from Get. Buffers whose capacity does not
// match a bucket exactly (foreign slices) are dropped.
func (p *BufferPool) Put(buf []byte) {
	c := cap(buf)
	if c == 0 {
		return
	}
	idx := bucketFor(c)
	if idx < 0 || (1<<(idx+poolMinShift)) != c {
		return
	}
	w, _ := p.spare.Get().(*pooledBuf)
	if w == nil {
		w = new(pooledBuf)
	}
	w.b = buf[:c]
	p.puts.Add(1)
	p.buckets[idx].Put(w)
}

// Stats reports cumulative pool hits and misses — the frame.pool.hit /
// frame.pool.miss counters surfaced by vpbench.
func (p *BufferPool) Stats() (hits, misses uint64) {
	return p.hits.Load(), p.misses.Load()
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
