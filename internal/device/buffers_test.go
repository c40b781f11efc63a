package device

import (
	"bytes"
	"context"
	"errors"
	"image/color"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"videopipe/internal/frame"
	"videopipe/internal/wire"
)

// creditWindow stands in for the pipeline's admission pool: take before a
// frame enters, returned by whichever of frame_done / abandoned fires.
type creditWindow struct{ avail atomic.Int64 }

func watchCredits(m *Module, n int64) *creditWindow {
	w := &creditWindow{}
	w.avail.Store(n)
	m.SetFrameDone(func(time.Duration) { w.avail.Add(1) })
	m.SetFrameAbandoned(func() { w.avail.Add(1) })
	return w
}

// An admitted frame that dies on the way into a module — its payload will
// not decode, or the device store refuses it — must still give its credit
// back and must not strand the buffer it was decoded into. Both used to be
// counted on decode_errors and forgotten.
func TestBufferPoolDecodeFailureReturnsCreditAndFrame(t *testing.T) {
	const window = 2
	sink := `function event_received(message) { frame_done(); }`
	good, err := frame.RawCodec{}.AppendEncode(nil, frame.MustNew(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), good[:len(good)-7]...)

	for name, tc := range map[string]struct {
		payload   []byte
		storeFull bool
	}{
		"corrupt frame part": {payload: corrupt},
		"store full":         {payload: good, storeFull: true},
	} {
		t.Run(name, func(t *testing.T) {
			nw := testNet()
			d := newDevice(t, nw, "desktop", Desktop)
			d.SetCodec(frame.RawCodec{})
			if tc.storeFull {
				d.store = frame.NewStore(1)
				if _, err := d.store.Put(frame.MustNew(4, 4)); err != nil {
					t.Fatal(err)
				}
			}
			m, err := d.SpawnModule(ModuleSpec{Name: "m", Source: sink})
			if err != nil {
				t.Fatal(err)
			}
			credits := watchCredits(m, window)
			push := wire.DialPush(nw.Host("phone"), m.Addr().String())
			defer push.Close()
			outstanding := frame.Pool.Outstanding()

			credits.avail.Add(-1) // the source admitted the frame
			if err := push.Send(context.Background(), wire.NewMessage([]byte(`{"seq":1}`), tc.payload)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return d.reg.Meter("module.m.decode_errors").Count() == 1 })
			waitFor(t, func() bool { return credits.avail.Load() == window })
			if got := d.reg.Meter("module.m.abandoned").Count(); got != 1 {
				t.Errorf("abandoned meter = %d, want 1", got)
			}
			push.Close()
			waitFor(t, func() bool { return frame.Pool.Outstanding() == outstanding })

			// A frameless message that fails to parse consumed no credit
			// and returns none.
			push2 := wire.DialPush(nw.Host("phone"), m.Addr().String())
			defer push2.Close()
			if err := push2.Send(context.Background(), wire.NewMessage([]byte(`{not json`))); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return d.reg.Meter("module.m.decode_errors").Count() == 2 })
			if got := credits.avail.Load(); got != window {
				t.Errorf("credits = %d after a frameless decode error, want %d", got, window)
			}
		})
	}
}

// TryInject takes ownership of the frame unconditionally, so a store that
// refuses it must not leave its buffer out of the pool.
func TestBufferPoolInjectStoreFullReleasesFrame(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	d.store = frame.NewStore(1)
	if _, err := d.store.Put(frame.MustNew(4, 4)); err != nil {
		t.Fatal(err)
	}
	m, err := d.SpawnModule(ModuleSpec{Name: "m", Source: `function event_received(message) { frame_done(); }`})
	if err != nil {
		t.Fatal(err)
	}
	outstanding := frame.Pool.Outstanding()

	g := frame.MustNewPooled(32, 32)
	if ok, err := m.TryInject(nil, g); ok || err == nil {
		t.Fatalf("TryInject into a full store = %v, %v", ok, err)
	}
	if !g.Released() {
		t.Error("a refused frame was not released")
	}
	if got := frame.Pool.Outstanding(); got != outstanding {
		t.Errorf("pool outstanding moved by %d: a refused frame's buffer was not returned", got-outstanding)
	}
}

// TryInject into a module that has closed hands the frame back: its store
// entry is released, so neither a store slot nor the pooled buffer stays
// pinned.
func TestBufferPoolInjectClosedModuleReleasesFrame(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	m, err := d.SpawnModule(ModuleSpec{Name: "m", Source: `function event_received(message) { frame_done(); }`})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	resident, outstanding := d.store.Len(), frame.Pool.Outstanding()

	for i := 0; i < 8; i++ {
		if ok, err := m.TryInject(nil, frame.MustNewPooled(32, 32)); ok || err == nil {
			t.Fatalf("TryInject into a closed module = %v, %v", ok, err)
		}
	}
	if got := d.store.Len(); got != resident {
		t.Errorf("store holds %d frames after injecting into a closed module, want %d", got, resident)
	}
	if got := frame.Pool.Outstanding(); got != outstanding {
		t.Errorf("pool outstanding moved by %d: an injected frame's buffer was not returned", got-outstanding)
	}
}

// countingCodec is the device's JPEG codec with its checks and decodes
// counted; with failDecode its Check still passes and every Decode fails,
// so the failure shows only where pixels are read.
type countingCodec struct {
	frame.JPEGCodec
	checks, decodes *atomic.Int64
	failDecode      bool
}

func (c countingCodec) Check(data []byte) (frame.Header, error) {
	c.checks.Add(1)
	return c.JPEGCodec.Check(data)
}

func (c countingCodec) Decode(data []byte) (*frame.Frame, error) {
	c.decodes.Add(1)
	if c.failDecode {
		return nil, errors.New("corrupt scan")
	}
	return c.JPEGCodec.Decode(data)
}

// phoneFrame is what the phone sends: a drawn VGA frame, JPEG-encoded
// with a sequence number and capture time of its own.
func phoneFrame(t *testing.T) []byte {
	t.Helper()
	f := frame.MustNew(640, 480)
	f.Fill(color.RGBA{R: 40, G: 90, B: 160, A: 255})
	f.DrawRect(100, 60, 300, 400, color.RGBA{R: 220, G: 30, B: 30, A: 255})
	f.DrawCircle(420, 200, 70, color.RGBA{R: 240, G: 220, B: 180, A: 255})
	f.Seq, f.Captured = 41, time.Unix(0, 1_700_000_000_123_456_789)
	data, err := frame.JPEGCodec{Quality: 85}.AppendEncode(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// relayHop is the desktop hop of relay_vga: module name on a desktop whose
// codec counts its work, forwarding to a bare PULL socket standing in for
// the TV. hop sends the phone's frame through it and returns what the TV
// got, released by the caller.
func relayHop(t *testing.T, name, src string, codec countingCodec) (d *Device, hop func() wire.Message) {
	t.Helper()
	nw := testNet()
	d = newDevice(t, nw, "desktop", Desktop)
	d.SetCodec(codec)
	tv, err := wire.ListenPull(nw.Host("tv"), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tv.Close() })
	m, err := d.SpawnModule(ModuleSpec{Name: name, Source: src, Next: []Route{{Module: "relay_c", Address: tv.Addr().String()}}})
	if err != nil {
		t.Fatal(err)
	}
	push := wire.DialPush(nw.Host("phone"), m.Addr().String())
	t.Cleanup(func() { push.Close() })
	data := phoneFrame(t)
	body := []byte(`{"seq":41}`)
	return d, func() wire.Message {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := push.Send(ctx, wire.NewMessage(body, data)); err != nil {
			t.Fatal(err)
		}
		msg, err := tv.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(msg.Part(1), data) {
			t.Fatal("the TV did not receive the phone's bytes")
		}
		return msg
	}
}

// hopMallocs is the fewest mallocs per hop over five batches of 20: the
// count is process-wide, so the quietest batch is the hop's own.
func hopMallocs(hop func() wire.Message) float64 {
	best := math.Inf(1)
	var m0, m1 runtime.MemStats
	for batch := 0; batch < 5; batch++ {
		runtime.ReadMemStats(&m0)
		for i := 0; i < 20; i++ {
			msg := hop()
			msg.Release()
		}
		runtime.ReadMemStats(&m1)
		best = min(best, float64(m1.Mallocs-m0.Mallocs)/20)
	}
	return best
}

const (
	relaySrc = `function event_received(message) {
	call_module("relay_c", {frame_ref: message.frame_ref, seq: message.seq});
}`
	// relayReaderSrc forwards like relaySrc but can reach call_service, so
	// the device decodes its frames on receipt.
	relayReaderSrc = `function event_received(message) {
	if (message.seq < 0) { call_service("pose_detector", {frame_ref: message.frame_ref}); }
	call_module("relay_c", {frame_ref: message.frame_ref, seq: message.seq});
}`
)

// TestForwardEncodedAllocs: a warm pass-through hop — relay_vga's relay_b —
// checks the frame, forwards the bytes it arrived with and never makes a
// *Frame: no decode, no encode, and the TV receives the phone's own bytes,
// seq and capture time intact. The same hop through a module that calls
// services decodes each frame on receipt (one *Frame more) and still
// forwards the bytes instead of encoding again. Both hops are pinned at
// their counts.
func TestForwardEncodedAllocs(t *testing.T) {
	var checks, decodes atomic.Int64
	codec := countingCodec{checks: &checks, decodes: &decodes}
	d, hop := relayHop(t, "relay_b", relaySrc, codec)
	msg := hop()
	hdr, err := frame.JPEGCodec{}.Check(msg.Part(1))
	if err != nil || hdr.Seq != 41 || !hdr.Captured.Equal(time.Unix(0, 1_700_000_000_123_456_789)) {
		t.Fatalf("the TV's frame reads %+v, %v; want the phone's seq 41 and capture time", hdr, err)
	}
	msg.Release()
	for i := 0; i < 20; i++ {
		msg := hop()
		msg.Release()
	}
	forward := hopMallocs(hop)
	hops := checks.Load()
	if decodes.Load() != 0 || d.reg.Histogram("module.relay_b.encode").Count() != 0 {
		t.Errorf("pass-through hop: %d decodes and %d encodes over %d hops, want none", decodes.Load(), d.reg.Histogram("module.relay_b.encode").Count(), hops)
	}

	var rchecks, rdecodes atomic.Int64
	rd, rhop := relayHop(t, "relay_r", relayReaderSrc, countingCodec{checks: &rchecks, decodes: &rdecodes})
	for i := 0; i < 20; i++ {
		msg := rhop()
		msg.Release()
	}
	eager := hopMallocs(rhop)
	if rdecodes.Load() != rchecks.Load() || rd.reg.Histogram("module.relay_r.encode").Count() != 0 {
		t.Errorf("service-calling hop: %d decodes for %d frames and %d encodes; want one decode each and no encode",
			rdecodes.Load(), rchecks.Load(), rd.reg.Histogram("module.relay_r.encode").Count())
	}
	t.Logf("warm hop: %.2f mallocs forwarding, %.2f decoding on receipt", forward, eager)
	if raceEnabled {
		return
	}
	if forward > eager-1 {
		t.Errorf("pass-through hop: %.2f mallocs, want at least the decoded *Frame fewer than the decoding hop's %.2f", forward, eager)
	}
	// What is left is the test's own per-hop timeout context and the
	// received message object: the forwarded literal is the site's scratch,
	// and neither link makes a wakeup channel per write (nine and ten
	// before both).
	if forward > 6 || eager > 7 {
		t.Errorf("warm hop: %.2f mallocs forwarding and %.2f decoding on receipt, want <= 6 and <= 7", forward, eager)
	}
}

// A frame whose bytes pass Check but will not decode fails where its pixels
// are first read, once, and gives its credit back exactly once: in the
// handler of a local module that hands it to a service, behind a
// pass-through module that never read it (the call fails and the handler's
// error path abandons the frame), or on receipt at a module that calls
// services (counted as a decode error, like a payload Check refuses).
func TestBufferPoolFirstReadDecodeFailure(t *testing.T) {
	const window, frames = 2, 3
	reader := `function event_received(message) {
	call_service("probe", {frame_ref: message.frame_ref});
	frame_done();
}`
	for _, tc := range []struct {
		name, entry                 string
		decodeErrors, handlerErrors uint64
	}{
		{name: "behind a pass-through module", entry: "relay", handlerErrors: frames},
		{name: "on receipt", entry: "reader", decodeErrors: frames},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := testNet()
			d := newDevice(t, nw, "desktop", Desktop)
			var checks, decodes atomic.Int64
			d.SetCodec(countingCodec{checks: &checks, decodes: &decodes, failDecode: true})
			if _, err := d.DeployService(echoSpec("probe"), 1); err != nil {
				t.Fatal(err)
			}
			r, err := d.SpawnModule(ModuleSpec{Name: "reader", Source: reader, Services: []string{"probe"}})
			if err != nil {
				t.Fatal(err)
			}
			relay, err := d.SpawnModule(ModuleSpec{Name: "relay", Source: strings.ReplaceAll(relaySrc, "relay_c", "reader"),
				Next: []Route{{Module: "reader"}}})
			if err != nil {
				t.Fatal(err)
			}
			credits := watchCredits(relay, window)
			r.SetFrameDone(relay.onFrameDone)
			r.SetFrameAbandoned(relay.onFrameAbandoned)
			entry := relay
			if tc.entry == "reader" {
				entry = r
			}
			push := wire.DialPush(nw.Host("phone"), entry.Addr().String())
			defer push.Close()
			outstanding := frame.Pool.Outstanding()
			data := phoneFrame(t)
			for i := 0; i < frames; i++ {
				credits.avail.Add(-1)
				if err := push.Send(context.Background(), wire.NewMessage([]byte(`{"seq":1}`), data)); err != nil {
					t.Fatal(err)
				}
				waitFor(t, func() bool { return credits.avail.Load() == window })
			}
			push.Close()
			meter := func(name string) uint64 { return d.reg.Meter(name).Count() }
			abandoned := meter("module.reader.abandoned") + meter("module.relay.abandoned")
			if abandoned != frames || decodes.Load() != frames {
				t.Errorf("%d frames: %d abandoned, %d decodes; want one each", frames, abandoned, decodes.Load())
			}
			if got := meter("module." + tc.entry + ".decode_errors"); got != tc.decodeErrors {
				t.Errorf("decode_errors = %d, want %d", got, tc.decodeErrors)
			}
			if got := meter("module.reader.errors"); got != tc.handlerErrors {
				t.Errorf("reader errors = %d, want %d", got, tc.handlerErrors)
			}
			if tc.handlerErrors > 0 && !strings.Contains(r.LastError(), "corrupt scan") {
				t.Errorf("reader's error %q does not name the decode", r.LastError())
			}
			waitFor(t, func() bool { return frame.Pool.Outstanding() == outstanding && d.store.Len() == 0 })
		})
	}
}
