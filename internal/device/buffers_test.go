package device

import (
	"context"
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
	good, err := frame.RawCodec{}.Encode(frame.MustNew(16, 16))
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
			waitFor(t, func() bool { return d.Metrics().Meter("module.m.decode_errors").Count() == 1 })
			waitFor(t, func() bool { return credits.avail.Load() == window })
			if got := d.Metrics().Meter("module.m.abandoned").Count(); got != 1 {
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
			waitFor(t, func() bool { return d.Metrics().Meter("module.m.decode_errors").Count() == 2 })
			if got := credits.avail.Load(); got != window {
				t.Errorf("credits = %d after a frameless decode error, want %d", got, window)
			}
		})
	}
}

// Inject and TryInject take ownership of the frame unconditionally, so a
// store that refuses it must not leave its buffer out of the pool.
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

	f := frame.MustNewPooled(32, 32)
	if err := m.Inject(context.Background(), nil, f); err == nil {
		t.Fatal("Inject into a full store succeeded")
	}
	g := frame.MustNewPooled(32, 32)
	if ok, err := m.TryInject(nil, g); ok || err == nil {
		t.Fatalf("TryInject into a full store = %v, %v", ok, err)
	}
	if !f.Released() || !g.Released() {
		t.Error("a refused frame was not released")
	}
	if got := frame.Pool.Outstanding(); got != outstanding {
		t.Errorf("pool outstanding moved by %d: a refused frame's buffer was not returned", got-outstanding)
	}
}
