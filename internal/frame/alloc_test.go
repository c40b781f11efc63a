package frame

import (
	"image/color"
	"math"
	"runtime"
	"strings"
	"testing"
)

// The data-plane contract: once the pool is warm, per-frame traffic through
// the raw codec allocates only the *Frame header (the pixel buffer cycles
// through the pool). These tests pin that so a regression shows up as a
// test failure, not a gradual fps slide.

func assertAllocs(t *testing.T, what string, got, want float64) {
	t.Helper()
	if raceEnabled {
		t.Logf("%s: %.1f allocs/op (bound %0.f not enforced under -race)", what, got, want)
		return
	}
	if got > want {
		t.Errorf("%s: %.1f allocs/op, want <= %.0f", what, got, want)
	}
}

// TestStoreAllocs pins the store's warm bookkeeping: entries are held by
// value, so a Put → Retain → Release → Release cycle allocates nothing once
// the map has room, and neither does an encoded entry that is never read. (The frames are made up front: a released frame is
// poisoned, so each cycle puts a fresh one.)
func TestStoreAllocs(t *testing.T) {
	const runs = 100
	s := NewStore(0)
	frames := make([]*Frame, runs+1) // AllocsPerRun's warm-up call takes one
	for i := range frames {
		frames[i] = &Frame{Width: 1, Height: 1}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		id, err := s.Put(frames[next])
		if err != nil {
			t.Fatal(err)
		}
		next++
		s.Retain(id)
		s.Release(id)
		s.Release(id)
	})
	assertAllocs(t, "warm Put/Retain/Release/Release", allocs, 0)
	if s.Len() != 0 || !frames[runs].Released() {
		t.Errorf("%d frames resident after the cycles", s.Len())
	}

	// A frame that arrives encoded and is only forwarded: checked, copied
	// into a warm pool buffer, its header read for the event and its bytes
	// for the send, then evicted — no decode, no *Frame, nothing allocated.
	data := encodedScene(t, 64, 48)
	allocs = testing.AllocsPerRun(runs, func() {
		id, err := s.PutEncoded(data, JPEGCodec{})
		if err != nil {
			t.Fatal(err)
		}
		s.Header(id)
		s.Encoding(id)
		s.Release(id)
	})
	assertAllocs(t, "warm PutEncoded/Header/Encoding/Release", allocs, 0)
}

// rowSums is a striped job bound once: its function value is made when the
// test starts, so a call hands Stripes nothing new.
type rowSums struct {
	pix  []byte
	sums []int
	fn   func(stripe, lo, hi int)
}

func (r *rowSums) rows(stripe, lo, hi int) {
	for y := lo; y < hi; y++ {
		r.sums[stripe] += int(r.pix[y])
	}
}

// TestStripesAllocs: the stripe workers start with the package and each
// signals completion on its own channel, so a warm striped call with a
// function bound once allocates nothing, whether its stripes run on the
// workers or inline.
func TestStripesAllocs(t *testing.T) {
	r := &rowSums{pix: make([]byte, 480), sums: make([]int, MaxStripes())}
	r.fn = r.rows
	for _, n := range []int{32, 480} {
		allocs := testing.AllocsPerRun(200, func() { Stripes(n, r.fn) })
		assertAllocs(t, "warm Stripes over "+itoa(uint64(n))+" rows", allocs, 0)
	}
}

func TestRawCodecRoundTripAllocs(t *testing.T) {
	f := MustNewPooled(64, 48)
	defer f.Release()
	f.Fill(color.RGBA{R: 10, G: 20, B: 30, A: 255})
	c := RawCodec{}

	var buf []byte
	encode := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = c.AppendEncode(buf[:0], f)
		if err != nil {
			t.Fatal(err)
		}
	})
	assertAllocs(t, "raw AppendEncode into scratch", encode, 0)

	// Encode + decode + release: the decoded frame's pixels come back
	// from the pool, so only the Frame header remains.
	roundTrip := testing.AllocsPerRun(200, func() {
		buf, _ = c.AppendEncode(buf[:0], f)
		g, err := c.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	})
	assertAllocs(t, "raw encode/decode/release round trip", roundTrip, 1)
}

func TestCloneReleaseAllocs(t *testing.T) {
	f := MustNew(64, 48)
	f.Fill(color.RGBA{R: 200, G: 100, B: 50, A: 255})

	hitsBefore, _ := PoolStats()
	allocs := testing.AllocsPerRun(200, func() {
		cl := f.Clone()
		cl.Release()
	})
	assertAllocs(t, "Clone+Release cycle", allocs, 1)
	if hitsAfter, _ := PoolStats(); hitsAfter <= hitsBefore {
		t.Errorf("pool hits did not advance (%d -> %d): clones are not recycling", hitsBefore, hitsAfter)
	}
}

// TestJPEGDecodeAllocs pins the remote-hop decode: a warm VGA decode takes
// its pixels from the pool and its tables from the decoder pool, so only
// the Frame header is allocated — no per-frame planar image.
func TestJPEGDecodeAllocs(t *testing.T) {
	data, err := JPEGCodec{Quality: 85}.AppendEncode(nil, sceneFrame(640, 480))
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		f, err := JPEGCodec{}.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	// The collector stays on: the pixel buffer's free list survives a
	// collection, and a loop allocating 88 B/op does not trigger one that
	// could drain the decoder tables' sync.Pool (200/200 runs, also at
	// GOGC=5; the old SetGCPercent(-1) guard is gone).
	decode() // warm the pools

	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	assertAllocs(t, "jpeg decode/release", float64(after.Mallocs-before.Mallocs)/runs, 2)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if raceEnabled {
		t.Logf("jpeg decode/release: %.0f B/op (bound not enforced under -race)", perOp)
	} else if perOp > 1024 {
		t.Errorf("jpeg decode/release: %.0f B/op, want <= 1024", perOp)
	}
}

// TestJPEGEncodeAllocs pins the remote-hop encode: a warm VGA encode into
// a scratch buffer with enough capacity allocates nothing — no encoder
// state, no writer, no image header. MemStats counts the whole process, so
// the pin takes the quietest of several batches: an allocation the encode
// makes shows in every batch, a stray one on another goroutine in one.
func TestJPEGEncodeAllocs(t *testing.T) {
	src := sceneFrame(640, 480)
	codec := JPEGCodec{Quality: 85}
	buf, err := codec.AppendEncode(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	// buf now has the stream's capacity.
	const batches, runs = 5, 20
	mallocs, perOp := math.Inf(1), math.Inf(1)
	for range batches {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if buf, err = codec.AppendEncode(buf[:0], src); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, float64(after.Mallocs-before.Mallocs)/runs)
		perOp = min(perOp, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	assertAllocs(t, "jpeg AppendEncode into scratch", mallocs, 0)
	if raceEnabled {
		t.Logf("jpeg AppendEncode into scratch: %.0f B/op (bound not enforced under -race)", perOp)
	} else if perOp > 0 {
		t.Errorf("jpeg AppendEncode into scratch: %.0f B/op, want 0", perOp)
	}
}

func TestReleaseGuards(t *testing.T) {
	t.Run("nil is a no-op", func(t *testing.T) {
		var f *Frame
		f.Release()
	})

	t.Run("double release panics", func(t *testing.T) {
		f := MustNewPooled(8, 8)
		f.Release()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("second Release did not panic")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "double Release") {
				t.Fatalf("panic = %v, want double-Release message", r)
			}
		}()
		f.Release()
	})

	t.Run("release poisons pixels", func(t *testing.T) {
		f := MustNewPooled(8, 8)
		f.Release()
		if !f.Released() {
			t.Error("Released() = false after Release")
		}
		// Use-after-release must fail loudly (nil Pix), not silently
		// read pixels now owned by someone else.
		if f.Pix != nil {
			t.Error("Pix not nil after Release: use-after-release would read recycled memory")
		}
	})

	t.Run("unpooled frames release safely", func(t *testing.T) {
		f := MustNew(8, 8)
		f.Release()
		if f.Pix != nil {
			t.Error("unpooled Release must still poison Pix")
		}
	})
}
