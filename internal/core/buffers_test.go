package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"videopipe/internal/core"
	"videopipe/internal/device"
	"videopipe/internal/frame"
	"videopipe/internal/netsim"
	"videopipe/internal/script"
	"videopipe/internal/services"
)

const relayStage = `function event_received(message) {
	call_module("%NEXT%", {frame_ref: message.frame_ref, seq: message.seq});
}`

// relayCluster is vpmark's relay_vga in miniature: 640x480 frames through
// three pass-through modules, one per device, so every frame crosses two
// encode / PUSH / link / PULL / decode hops.
func relayCluster(t *testing.T) (*core.Cluster, *core.Pipeline) {
	t.Helper()
	c, err := core.NewCluster(core.ClusterSpec{
		Devices: []device.Config{
			{Name: "phone", Class: device.Phone},
			{Name: "desktop", Class: device.Desktop},
			{Name: "tv", Class: device.TV},
		},
		DefaultLink: netsim.WiFi,
	}, services.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	stage := func(next string) string { return strings.ReplaceAll(relayStage, "%NEXT%", next) }
	p, err := c.Launch(core.PipelineConfig{
		Name: "relay",
		Modules: []core.ModuleConfig{
			{Name: "a", Source: stage("b"), Next: []string{"b"}, Device: "phone"},
			{Name: "b", Source: stage("c"), Next: []string{"c"}, Device: "desktop"},
			{Name: "c", Source: `function event_received(message) { frame_done(); }`, Device: "tv"},
		},
		Source: core.SourceConfig{Device: "phone", FirstModule: "a", FPS: 10, Width: 640, Height: 480, Scene: "squat", RepRate: 0.5},
	}, core.CoLocatePlanner{})
	if err != nil {
		t.Fatal(err)
	}
	p.PrimeCredits()
	return c, p
}

// Every byte slice a remote hop borrows — link chunk, message body,
// decoded pixels — goes back to frame.Pool, whether the frame
// completes or the cluster is closed with it in flight: after Close the
// pool's outstanding count is what it was, plus what the test itself holds.
func TestBufferPoolConservation(t *testing.T) {
	outstanding := frame.Pool.Outstanding()
	c, p := relayCluster(t)
	template := frame.MustNewPooled(640, 480) // the one buffer the test keeps
	done := c.Metrics().Meter("pipeline.relay.c.frames_done")

	offer := func(n int, gap time.Duration) (admitted uint64) {
		for i := 0; i < n; i++ {
			f := template.Clone()
			f.Seq, f.Captured = uint64(i), time.Now()
			if p.Offer(f) {
				admitted++
			}
			time.Sleep(gap)
		}
		return admitted
	}

	admitted := offer(20, 15*time.Millisecond)
	waitCond(t, 5*time.Second, func() bool { return done.Count() == admitted })
	if admitted == 0 {
		t.Fatal("no frame was admitted")
	}
	if got, want := p.CreditsAvail(), p.Credits(); got != want {
		t.Errorf("credits = %d of %d with nothing in flight", got, want)
	}

	// Now close with frames on every hop.
	offer(6, 4*time.Millisecond)
	c.Close()
	if got := frame.Pool.Outstanding() - outstanding; got != 1 {
		t.Errorf("pool outstanding = start%+d after Cluster.Close, want +1 (the template): a chunk, body or frame was stranded", got)
	}
	template.Release()
}

// The flow-control window is what bounds a pipeline's buffer demand, so
// Offer keeps a free source-sized buffer per unclaimed credit (plus the one
// a refused offer holds): a burst that fills the window — the source
// catching up after a stall — must not grow the pool, or per-frame
// allocation depends on which second of a run the host hiccuped.
func TestBufferPoolCreditWindowReserved(t *testing.T) {
	c, p := relayCluster(t)
	template := frame.MustNewPooled(640, 480)
	defer template.Release()
	done := c.Metrics().Meter("pipeline.relay.c.frames_done")
	offer := func() bool {
		f := template.Clone()
		f.Captured = time.Now()
		return p.Offer(f)
	}
	idle := func() bool { return p.CreditsAvail() == p.Credits() }

	// One frame at a time, as a quiet run goes.
	for i := 0; i < 3; i++ {
		if !offer() {
			t.Fatal("lone frame refused")
		}
		waitCond(t, 5*time.Second, idle)
	}
	if done.Count() != 3 {
		t.Fatalf("frames_done = %d, want 3", done.Count())
	}
	retained := frame.Pool.Retained()

	// Then the whole window at once, and two more to be refused.
	admitted := 0
	for i := 0; i < p.Credits()+2; i++ {
		if offer() {
			admitted++
		}
	}
	waitCond(t, 5*time.Second, idle)
	if admitted < 2 {
		t.Fatalf("burst admitted %d frames; the test needs frames in flight together", admitted)
	}
	// Small classes (message bodies, link chunks) may each have grown by a
	// 20 KiB buffer; a frame buffer is 1.25 MiB.
	if grew := frame.Pool.Retained() - retained; grew > 1<<20 {
		t.Errorf("pool grew by %d B during the burst: a frame buffer was allocated for it", grew)
	}
}

// failingDecode is a codec whose frames never survive the trip.
type failingDecode struct{ frame.RawCodec }

func (failingDecode) Decode([]byte) (*frame.Frame, error) { return nil, errors.New("corrupt payload") }

// The pipeline-level view of the lost-credit bug: a frame admitted by Offer
// whose payload cannot be decoded downstream returns its credit, so the
// source is not one slot narrower for the rest of the run.
func TestBufferPoolDecodeFailureRestoresCredits(t *testing.T) {
	outstanding := frame.Pool.Outstanding()
	c, p := relayCluster(t)
	desktop, _ := c.Device("desktop")
	desktop.SetCodec(failingDecode{})

	window := p.Credits()
	for i := 0; i < 2*window; i++ {
		f := frame.MustNewPooled(640, 480)
		f.Captured = time.Now()
		if !p.Offer(f) {
			t.Fatalf("frame %d refused: credits from earlier failures did not come back", i)
		}
		errs := c.Metrics().Meter("module.relay.b.decode_errors")
		waitCond(t, 5*time.Second, func() bool { return errs.Count() == uint64(i+1) })
		waitCond(t, 5*time.Second, func() bool { return p.CreditsAvail() == window })
	}
	c.Close()
	if got := frame.Pool.Outstanding() - outstanding; got != 0 {
		t.Errorf("pool outstanding = start%+d after Cluster.Close, want 0", got)
	}
}

// The remote-API plan's encode buffer is the same pool's: a call_service
// that ships a frame to another device borrows it for the call and hands it
// back whether the call succeeds, the handler fails, the caller gives up
// mid-call or the breaker never lets the call out.
func TestBufferPoolRemoteCallConservation(t *testing.T) {
	outstanding := frame.Pool.Outstanding()
	reg := services.NewRegistry()
	// Two workers: the abandoned call's handler keeps one until Close.
	err := reg.Register(services.Spec{Name: "probe", Workers: 2,
		Handler: func(ctx context.Context, req services.Request) (services.Response, error) {
			switch req.Args.Get("mode") {
			case "fail":
				return services.Response{}, errors.New("model exploded")
			case "hang":
				<-ctx.Done()
				return services.Response{}, ctx.Err()
			}
			return services.Response{Result: map[string]script.Value{"ok": true}}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCluster(core.ClusterSpec{
		Devices: []device.Config{
			{Name: "phone", Class: device.Phone},
			{Name: "desktop", Class: device.Desktop},
		},
		DefaultLink: netsim.WiFi,
		Services:    []core.ServicePlacement{{Service: "probe", Device: "desktop"}},
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	phone, _ := c.Device("phone")
	f := frame.MustNewPooled(640, 480) // the one buffer the test keeps

	call := func(mode string, timeout time.Duration) error {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		_, err := phone.CallService(ctx, "probe", script.FromGo(map[string]script.Value{"mode": mode}).(*script.Object), f)
		return err
	}
	if err := call("ok", 5*time.Second); err != nil {
		t.Fatalf("remote call: %v", err)
	}
	if phone.Metrics().Histogram("service.probe.remote").Count() != 1 {
		t.Fatal("the call did not take the remote path")
	}
	if err := call("hang", 100*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("abandoned call = %v, want DeadlineExceeded", err)
	}
	// Enough handler failures to open the breaker, so the last calls are
	// refused before anything is sent.
	refused := false
	for i := 0; i < 20 && !refused; i++ {
		refused = errors.Is(call("fail", 5*time.Second), services.ErrBreakerOpen)
	}
	if !refused {
		t.Error("the breaker never opened; the refused-call path went untested")
	}

	c.Close()
	if got := frame.Pool.Outstanding() - outstanding; got != 1 {
		t.Errorf("pool outstanding = start%+d after Cluster.Close, want +1 (the test's frame): an encode buffer was stranded", got)
	}
	f.Release()
}
