package frame

import (
	"image/color"
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
	data, err := JPEGCodec{Quality: 85}.Encode(sceneFrame(640, 480))
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
