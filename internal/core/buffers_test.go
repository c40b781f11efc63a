package core_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"videopipe/internal/core"
	"videopipe/internal/device"
	"videopipe/internal/frame"
	"videopipe/internal/netsim"
	"videopipe/internal/script"
	"videopipe/internal/services"
	"videopipe/internal/wire"
)

const relayStage = `function event_received(message) {
	call_module("%NEXT%", {frame_ref: message.frame_ref, seq: message.seq});
}`

// relayCluster is vpmark's relay_vga in miniature: 640x480 frames through
// three pass-through modules, one per device, so every frame crosses two
// PUSH / link / PULL hops; the phone encodes it and nothing decodes it.
func relayCluster(t *testing.T) (*core.Cluster, *core.Pipeline) {
	stage := func(next string) string { return strings.ReplaceAll(relayStage, "%NEXT%", next) }
	return relayLaunch(t, services.NewRegistry(), nil, []core.ModuleConfig{
		{Name: "a", Source: stage("b"), Next: []string{"b"}, Device: "phone"},
		{Name: "b", Source: stage("c"), Next: []string{"c"}, Device: "desktop"},
		{Name: "c", Source: `function event_received(message) { frame_done(); }`, Device: "tv"},
	})
}

// relayLaunch deploys modules as pipeline "relay" on relay_vga's phone,
// desktop and TV, with svcs on the desktop, and primes its credit window.
func relayLaunch(t *testing.T, reg *services.Registry, svcs []core.ServicePlacement, mods []core.ModuleConfig) (*core.Cluster, *core.Pipeline) {
	t.Helper()
	c, err := core.NewCluster(core.ClusterSpec{
		Devices: []device.Config{
			{Name: "phone", Class: device.Phone},
			{Name: "desktop", Class: device.Desktop},
			{Name: "tv", Class: device.TV},
		},
		DefaultLink: netsim.WiFi,
		Services:    svcs,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	p, err := c.Launch(core.PipelineConfig{
		Name:    "relay",
		Modules: mods,
		Source:  core.SourceConfig{Device: "phone", FirstModule: "a", FPS: 10, Width: 640, Height: 480, Scene: "squat", RepRate: 0.5},
	}, core.CoLocatePlanner{})
	if err != nil {
		t.Fatal(err)
	}
	p.PrimeCredits()
	return c, p
}

// Every byte slice a remote hop borrows — link chunk, message body, the
// bytes a store entry keeps — goes back to frame.Pool, whether the frame
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
	// The middle forwarded the phone's bytes: it encoded nothing.
	if n := c.Metrics().Histogram("module.relay.b.encode").Count(); n != 0 {
		t.Errorf("the pass-through module encoded %d frames", n)
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

// failingDecode is a codec whose frames never survive the trip: a frame
// that arrives is refused on receipt, by Check, as well as by Decode.
type failingDecode struct{ frame.RawCodec }

func (failingDecode) Decode([]byte) (*frame.Frame, error) { return nil, errors.New("corrupt payload") }

func (failingDecode) Check([]byte) (frame.Header, error) {
	return frame.Header{}, errors.New("corrupt payload")
}

// scanFailure is the device's JPEG codec with a scan that never decodes:
// Check passes, so a frame is stored on receipt and fails only where its
// pixels are read.
type scanFailure struct{ frame.JPEGCodec }

func (scanFailure) Decode([]byte) (*frame.Frame, error) { return nil, errors.New("corrupt scan") }

// offerEach offers n frames one at a time, each once the window is whole
// again, and fails if one is refused.
func offerEach(t *testing.T, p *core.Pipeline, n int) {
	t.Helper()
	template := frame.MustNewPooled(640, 480)
	defer template.Release()
	for i := 0; i < n; i++ {
		f := template.Clone()
		f.Seq, f.Captured = uint64(i), time.Now()
		if !p.Offer(f) {
			t.Fatalf("frame %d refused", i)
		}
		waitCond(t, 5*time.Second, func() bool { return p.CreditsAvail() == p.Credits() })
	}
}

// probeRegistry hosts "probe", a service that reads every pixel of its
// request frame and counts the frames it saw.
func probeRegistry(t *testing.T, seen *atomic.Int64) *services.Registry {
	t.Helper()
	reg := services.NewRegistry()
	err := reg.Register(services.Spec{Name: "probe",
		Handler: func(_ context.Context, req services.Request) (services.Response, error) {
			if req.Frame == nil || len(req.Frame.Pix) != 640*480*4 {
				return services.Response{}, errors.New("no frame")
			}
			sum := 0
			for _, b := range req.Frame.Pix {
				sum += int(b)
			}
			seen.Add(1)
			return services.Response{Result: map[string]script.Value{"sum": float64(sum)}}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

const probeReader = `function event_received(message) {
	call_service("probe", {frame_ref: message.frame_ref});
	frame_done();
}`

// A local fan-out from a module that reads nothing: one branch hands the
// frame to a service, which decodes it on that first read; the other sends
// it on to the TV as the bytes it arrived with. Every buffer comes back
// and every frame's credit returns once.
func TestBufferPoolFanOutReaderAndForward(t *testing.T) {
	outstanding := frame.Pool.Outstanding()
	var seen atomic.Int64
	c, p := relayLaunch(t, probeRegistry(t, &seen), []core.ServicePlacement{{Service: "probe", Device: "desktop"}}, []core.ModuleConfig{
		{Name: "a", Source: strings.ReplaceAll(relayStage, "%NEXT%", "b"), Next: []string{"b"}, Device: "phone"},
		{Name: "b", Source: `function event_received(message) {
	call_module("reader", {frame_ref: message.frame_ref});
	call_module("c", {frame_ref: message.frame_ref, seq: message.seq});
}`, Next: []string{"reader", "c"}, Device: "desktop"},
		{Name: "reader", Source: `function event_received(message) { call_service("probe", {frame_ref: message.frame_ref}); }`,
			Services: []string{"probe"}, Device: "desktop"},
		{Name: "c", Source: `function event_received(message) { frame_done(); }`, Device: "tv"},
	})
	const frames = 6
	offerEach(t, p, frames)
	waitCond(t, 5*time.Second, func() bool { return seen.Load() == frames })
	reg := c.Metrics()
	if done := reg.Meter("pipeline.relay.c.frames_done").Count(); done != frames {
		t.Errorf("frames_done = %d, want %d", done, frames)
	}
	if n := reg.Histogram("module.relay.b.encode").Count(); n != 0 {
		t.Errorf("the forwarding branch encoded %d frames; it should send the bytes they arrived with", n)
	}
	if n := reg.Meter("module.relay.reader.abandoned").Count() + reg.Meter("module.relay.b.abandoned").Count(); n != 0 {
		t.Errorf("%d frames abandoned", n)
	}
	c.Close()
	if got := frame.Pool.Outstanding() - outstanding; got != 0 {
		t.Errorf("pool outstanding = start%+d after Cluster.Close, want 0", got)
	}
}

// A desktop whose store is full refuses an arriving frame on receipt: it
// is counted as a decode error, its credit comes back once, and neither
// the bytes nor the message stay out of the pool.
func TestBufferPoolStoreFullOnReceipt(t *testing.T) {
	outstanding := frame.Pool.Outstanding()
	c, p := relayCluster(t)
	desktop, _ := c.Device("desktop")
	var fillers []uint64
	for {
		id, err := desktop.Store().Put(frame.MustNew(1, 1))
		if err != nil {
			break
		}
		fillers = append(fillers, id)
	}
	const frames = 4
	offerEach(t, p, frames)
	reg := c.Metrics()
	if got := reg.Meter("module.relay.b.decode_errors").Count(); got != frames {
		t.Errorf("decode_errors = %d, want %d", got, frames)
	}
	if got := reg.Meter("module.relay.b.abandoned").Count(); got != frames {
		t.Errorf("abandoned = %d, want %d", got, frames)
	}
	for _, id := range fillers {
		desktop.Store().Release(id)
	}
	c.Close()
	if got := frame.Pool.Outstanding() - outstanding; got != 0 {
		t.Errorf("pool outstanding = start%+d after Cluster.Close, want 0", got)
	}
}

// Closing the cluster while a paused desktop holds encoded-only frames —
// one at its module's admission gate, one in its inbox — gives every
// entry's bytes back and every credit once: both events are abandoned.
func TestBufferPoolCloseWithQueuedEncodedEvents(t *testing.T) {
	outstanding := frame.Pool.Outstanding()
	c, p := relayLaunch(t, services.NewRegistry(), nil, []core.ModuleConfig{
		{Name: "a", Source: strings.ReplaceAll(relayStage, "%NEXT%", "b"), Next: []string{"b"}, Device: "phone"},
		{Name: "b", Source: `function event_received(message) { frame_done(); }`, Device: "desktop"},
	})
	desktop, _ := c.Device("desktop")
	desktop.Pause()
	template := frame.MustNewPooled(640, 480)
	admitted := 0
	waitCond(t, 5*time.Second, func() bool { // an offer the phone module's full inbox refuses is retried
		f := template.Clone()
		f.Captured = time.Now()
		if p.Offer(f) {
			admitted++
		}
		return admitted == p.Credits()
	})
	waitCond(t, 5*time.Second, func() bool { return desktop.Store().Len() == p.Credits() })
	c.Close()
	template.Release()
	abandoned := c.Metrics().Meter("module.relay.b.abandoned").Count()
	done := c.Metrics().Meter("pipeline.relay.b.frames_done").Count()
	if abandoned != uint64(p.Credits()) || done != 0 || p.CreditsAvail() != p.Credits() {
		t.Errorf("%d abandoned and %d done of the %d frames queued, %d credits of %d back",
			abandoned, done, p.Credits(), p.CreditsAvail(), p.Credits())
	}
	if got := frame.Pool.Outstanding() - outstanding; got != 0 {
		t.Errorf("pool outstanding = start%+d after Cluster.Close, want 0", got)
	}
}

// Closing the cluster while a busy middle module is mid-handler, before
// its first remote call_module: the forward that follows finds the module
// closing and dials nothing, so Close returns at once rather than after
// the send's 10 s bound, and the frame is abandoned once with its credit
// and every pool buffer back. The desktop-TV link is down, so a dial the
// module did make could only retry.
func TestBufferPoolCloseDuringFirstRemoteForward(t *testing.T) {
	outstanding := frame.Pool.Outstanding()
	entered, release := make(chan struct{}), make(chan struct{})
	reg := services.NewRegistry()
	if err := reg.Register(services.Spec{Name: "slow",
		Handler: func(context.Context, services.Request) (services.Response, error) {
			entered <- struct{}{}
			<-release
			return services.Response{}, nil
		}}); err != nil {
		t.Fatal(err)
	}
	c, p := relayLaunch(t, reg, []core.ServicePlacement{{Service: "slow", Device: "desktop"}}, []core.ModuleConfig{
		{Name: "a", Source: strings.ReplaceAll(relayStage, "%NEXT%", "b"), Next: []string{"b"}, Device: "phone"},
		{Name: "b", Source: `function event_received(message) {
	call_service("slow", {});
	call_module("c", {frame_ref: message.frame_ref, seq: message.seq});
}`, Next: []string{"c"}, Services: []string{"slow"}, Device: "desktop"},
		{Name: "c", Source: `function event_received(message) { frame_done(); }`, Device: "tv"},
	})
	c.Network().Partition("desktop", "tv")
	f := frame.MustNewPooled(640, 480)
	f.Captured = time.Now()
	if !p.Offer(f) {
		t.Fatal("frame refused")
	}
	<-entered
	took := make(chan time.Duration)
	go func() {
		start := time.Now()
		c.Close()
		took <- time.Since(start)
	}()
	// Nothing outside the module shows that Close has reached b and is
	// waiting for its handler; the other two modules close in
	// milliseconds, so a pause well past that stands in for the event.
	time.Sleep(200 * time.Millisecond)
	close(release)
	if d := <-took; d > time.Second {
		t.Errorf("Cluster.Close took %v with a forward after Close began, want well under 1s", d)
	}
	abandoned := c.Metrics().Meter("module.relay.b.abandoned").Count()
	done := c.Metrics().Meter("pipeline.relay.c.frames_done").Count()
	if abandoned != 1 || done != 0 || p.CreditsAvail() != p.Credits() {
		t.Errorf("%d abandoned and %d done of the one frame, %d credits of %d back",
			abandoned, done, p.CreditsAvail(), p.Credits())
	}
	if got := frame.Pool.Outstanding() - outstanding; got != 0 {
		t.Errorf("pool outstanding = start%+d after Cluster.Close, want 0", got)
	}
}

// A frame whose bytes pass Check on the desktop but whose scan will not
// decode, behind a pass-through module, fails in the handler that first
// reads its pixels: the service call fails, the handler errors, the frame
// is abandoned exactly once and its credit comes back.
func TestBufferPoolDecodeFailureAtFirstRead(t *testing.T) {
	outstanding := frame.Pool.Outstanding()
	var seen atomic.Int64
	c, p := relayLaunch(t, probeRegistry(t, &seen), []core.ServicePlacement{{Service: "probe", Device: "desktop"}}, []core.ModuleConfig{
		{Name: "a", Source: strings.ReplaceAll(relayStage, "%NEXT%", "b"), Next: []string{"b"}, Device: "phone"},
		{Name: "b", Source: strings.ReplaceAll(relayStage, "%NEXT%", "reader"), Next: []string{"reader"}, Device: "desktop"},
		{Name: "reader", Source: probeReader, Services: []string{"probe"}, Device: "desktop"},
	})
	desktop, _ := c.Device("desktop")
	desktop.SetCodec(scanFailure{})
	const frames = 4
	offerEach(t, p, frames)
	reg := c.Metrics()
	if got := reg.Meter("module.relay.reader.abandoned").Count(); got != frames {
		t.Errorf("abandoned = %d, want %d", got, frames)
	}
	if got := reg.Meter("module.relay.reader.errors").Count(); got != frames {
		t.Errorf("reader errors = %d, want %d", got, frames)
	}
	if got := reg.Meter("module.relay.b.decode_errors").Count() + reg.Meter("module.relay.b.abandoned").Count(); got != 0 {
		t.Errorf("the pass-through module refused or abandoned %d frames", got)
	}
	if seen.Load() != 0 {
		t.Errorf("the service saw %d frames that never decoded", seen.Load())
	}
	c.Close()
	if got := frame.Pool.Outstanding() - outstanding; got != 0 {
		t.Errorf("pool outstanding = start%+d after Cluster.Close, want 0", got)
	}
}

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
// mid-call or no reply can come because the link is cut.
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
	if c.Metrics().Histogram("service.probe.remote").Count() != 1 {
		t.Fatal("the call did not take the remote path")
	}
	if err := call("hang", 100*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("abandoned call = %v, want DeadlineExceeded", err)
	}
	var remote *wire.RemoteError
	if err := call("fail", 5*time.Second); !errors.As(err, &remote) {
		t.Errorf("failing handler = %v, want a *wire.RemoteError", err)
	}
	// A partitioned desktop refuses every dial: the call spends its retry
	// budget, well inside its deadline, without a reply.
	c.Network().Partition("phone", "desktop")
	if err := call("ok", 5*time.Second); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("call across a partition = %v, want the retry budget exhausted", err)
	}

	c.Close()
	if got := frame.Pool.Outstanding() - outstanding; got != 1 {
		t.Errorf("pool outstanding = start%+d after Cluster.Close, want +1 (the test's frame): an encode buffer was stranded", got)
	}
	f.Release()
}
