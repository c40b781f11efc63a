package netsim

import (
	"context"
	"image/color"
	"runtime"
	"testing"

	"videopipe/internal/frame"
	"videopipe/internal/wire"
)

// TestRemoteHopAllocs pins what one device boundary costs once it is warm:
// encode into the sender's scratch, PUSH, the link's private copy, PULL,
// decode into a pooled frame, and both releases. The encoder scratch, the
// chunk, the message body and the pixels all cycle through frame.Pool, so
// what is left is the JPEG encoder's own state and a handful of headers.
//
// Under -race the byte bound is not enforced, but the loop is the check
// that nothing reads a body after Release: the next hop's reader goroutine
// overwrites the very buffer this hop released, so a decoder or a Message
// that still looked at it would be a reported race.
func TestRemoteHopAllocs(t *testing.T) {
	nw := NewNetwork(LinkProfile{})
	defer nw.Close()
	pull, err := wire.ListenPull(nw.Host("desktop"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pull.Close()
	push := wire.DialPush(nw.Host("phone"), pull.Addr().String())
	defer push.Close()

	src := frame.MustNew(640, 480)
	src.Fill(color.RGBA{R: 40, G: 60, B: 90, A: 255})
	src.DrawRect(100, 80, 400, 300, color.RGBA{R: 220, G: 180, B: 40, A: 255})
	src.DrawCircle(320, 240, 90, color.RGBA{R: 200, G: 30, B: 60, A: 255})
	codec := frame.JPEGCodec{Quality: 85}
	body := []byte(`{"seq":1}`)
	ctx := context.Background()
	outstanding := frame.Pool.Outstanding()

	var enc []byte
	hop := func() {
		var err error
		if enc, err = codec.AppendEncode(enc[:0], src); err != nil {
			t.Fatal(err)
		}
		if err := push.Send(ctx, wire.NewMessage(body, enc)); err != nil {
			t.Fatal(err)
		}
		m, err := pull.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		f, err := codec.Decode(m.Part(1))
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
		if m.Parts != nil {
			t.Fatal("Release left the parts readable")
		}
		if f.Width != 640 || f.Height != 480 {
			t.Fatalf("decoded %dx%d", f.Width, f.Height)
		}
		f.Release()
	}
	for i := 0; i < 3; i++ {
		hop() // connect, grow the scratches, stock the pool
	}

	const runs = 30
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		hop()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	mallocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("remote hop: %.0f B/op, %.1f mallocs/op", perOp, mallocs)
	if perOp > 2048 && !raceEnabled {
		t.Errorf("remote hop allocates %.0f B/op, want <= 2048", perOp)
	}
	if got := frame.Pool.Outstanding(); got != outstanding {
		t.Errorf("pool outstanding moved by %d over %d hops: a chunk, body, scratch or frame was not returned", got-outstanding, runs+3)
	}
}

// A reader that goes away with chunks still queued hands them back.
func TestBufferPoolChunksReturnOnClose(t *testing.T) {
	nw := fastNet()
	defer nw.Close()
	client, server := dialPair(t, nw, "a", "b")
	outstanding := frame.Pool.Outstanding()
	for i := 0; i < 3; i++ {
		if _, err := client.Write(make([]byte, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	if got := frame.Pool.Outstanding(); got != outstanding+3 {
		t.Fatalf("outstanding = %+d after three writes, want +3", got-outstanding)
	}
	if _, err := server.Read(make([]byte, 100)); err != nil { // one chunk partly read
		t.Fatal(err)
	}
	server.Close()
	client.Close()
	if got := frame.Pool.Outstanding(); got != outstanding {
		t.Errorf("outstanding = %+d after both ends closed, want 0", got-outstanding)
	}
}
