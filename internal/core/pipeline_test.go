package core_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"videopipe/internal/apps"
	"videopipe/internal/core"
	"videopipe/internal/device"
	"videopipe/internal/frame"
	"videopipe/internal/netsim"
	"videopipe/internal/script"
	"videopipe/internal/services"
	"videopipe/internal/vision"
)

// fastRegistry builds the standard services with tiny simulated costs and
// a small training corpus, shared across tests.
var (
	fastRegOnce sync.Once
	fastRegVal  *services.Registry
	fastRegErr  error
)

func fastRegistry(t *testing.T) *services.Registry {
	t.Helper()
	fastRegOnce.Do(func() {
		opts := services.DefaultOptions()
		opts.PoseCost = 15 * time.Millisecond
		opts.ActivityCost = 2 * time.Millisecond
		opts.RepCost = time.Millisecond
		opts.DisplayCost = time.Millisecond
		opts.FallCost = time.Millisecond
		cfg := vision.DefaultDatasetConfig()
		cfg.SequencesPerActivity = 6
		cfg.FramesPerSequence = 45
		opts.DatasetConfig = cfg
		fastRegVal, fastRegErr = services.NewStandardRegistry(opts)
	})
	if fastRegErr != nil {
		t.Fatalf("NewStandardRegistry: %v", fastRegErr)
	}
	return fastRegVal
}

func homeCluster(t *testing.T) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(apps.HomeClusterSpec(), fastRegistry(t))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewClusterValidation(t *testing.T) {
	reg := fastRegistry(t)
	if _, err := core.NewCluster(core.ClusterSpec{}, reg); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := core.NewCluster(core.ClusterSpec{Devices: []device.Config{{Name: "a"}}}, nil); err == nil {
		t.Error("nil registry accepted")
	}
	dup := core.ClusterSpec{Devices: []device.Config{{Name: "a"}, {Name: "a"}}}
	if _, err := core.NewCluster(dup, reg); err == nil {
		t.Error("duplicate devices accepted")
	}
	badSvc := core.ClusterSpec{
		Devices:  []device.Config{{Name: "a", Class: device.Desktop}},
		Services: []core.ServicePlacement{{Service: "nope", Device: "a"}},
	}
	if _, err := core.NewCluster(badSvc, reg); err == nil {
		t.Error("unknown service accepted")
	}
	badDev := core.ClusterSpec{
		Devices:  []device.Config{{Name: "a", Class: device.Desktop}},
		Services: []core.ServicePlacement{{Service: services.PoseDetector, Device: "ghost"}},
	}
	if _, err := core.NewCluster(badDev, reg); err == nil {
		t.Error("service on unknown device accepted")
	}
	noContainers := core.ClusterSpec{
		Devices:  []device.Config{{Name: "a", Class: device.Phone}},
		Services: []core.ServicePlacement{{Service: services.PoseDetector, Device: "a"}},
	}
	if _, err := core.NewCluster(noContainers, reg); err == nil {
		t.Error("service on container-less device accepted")
	}
}

func TestClusterAccessors(t *testing.T) {
	c := homeCluster(t)
	if names := c.DeviceNames(); len(names) != 3 || names[0] != "phone" {
		t.Errorf("DeviceNames = %v", names)
	}
	if host, ok := c.ServiceHost(services.PoseDetector); !ok || host != "desktop" {
		t.Errorf("ServiceHost(pose) = %q, %v", host, ok)
	}
	if host, ok := c.ServiceHost(services.Display); !ok || host != "tv" {
		t.Errorf("ServiceHost(display) = %q, %v", host, ok)
	}
	if _, err := c.Pool(services.PoseDetector); err != nil {
		t.Errorf("Pool: %v", err)
	}
	if _, err := c.Pool("ghost"); err == nil {
		t.Error("Pool(ghost) succeeded")
	}
	if got := c.ServiceNames(); len(got) != 5 {
		t.Errorf("ServiceNames = %v", got)
	}
}

func TestCoLocatePlannerPlacesModulesWithServices(t *testing.T) {
	c := homeCluster(t)
	cfg := apps.FitnessConfig("fit", 10, "squat")
	plan, err := core.CoLocatePlanner{}.Plan(&cfg, c)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	want := map[string]string{
		"video_streaming":      "phone",
		"pose_detection":       "desktop",
		"activity_recognition": "desktop",
		"rep_counter":          "desktop",
		"display":              "tv",
	}
	for mod, dev := range want {
		if plan.Placement[mod] != dev {
			t.Errorf("placement[%s] = %q, want %q", mod, plan.Placement[mod], dev)
		}
	}
	if plan.Credits != 2 {
		t.Errorf("credits = %d, want 2", plan.Credits)
	}
}

func TestBaselinePlannerPutsEverythingOnPhone(t *testing.T) {
	c := homeCluster(t)
	cfg := apps.FitnessConfig("fit", 10, "squat")
	plan, err := core.BaselinePlanner{}.Plan(&cfg, c)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	for mod, dev := range plan.Placement {
		if dev != "phone" {
			t.Errorf("baseline placed %s on %s", mod, dev)
		}
	}
	if plan.Credits != 1 {
		t.Errorf("baseline credits = %d, want 1 (synchronous)", plan.Credits)
	}
}

func validConfig() core.PipelineConfig {
	return core.PipelineConfig{
		Name: "test",
		Modules: []core.ModuleConfig{
			{Name: "a", Source: "function event_received(m) {}", Next: []string{"b"}},
			{Name: "b", Source: "function event_received(m) {}"},
		},
		Source: core.SourceConfig{Device: "phone", FirstModule: "a", FPS: 10, Width: 64, Height: 48},
	}
}

func TestPinnedPlanner(t *testing.T) {
	c := homeCluster(t)
	cfg := validConfig()
	cfg.Modules[0].Device = "phone"
	cfg.Modules[1].Device = "tv"
	plan, err := core.PinnedPlanner{}.Plan(&cfg, c)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if plan.Placement["a"] != "phone" || plan.Placement["b"] != "tv" {
		t.Errorf("placement = %v", plan.Placement)
	}
	cfg.Modules[1].Device = ""
	if _, err := (core.PinnedPlanner{}).Plan(&cfg, c); err == nil {
		t.Error("unpinned module accepted")
	}
	cfg.Modules[1].Device = "ghost"
	if _, err := (core.PinnedPlanner{}).Plan(&cfg, c); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestLaunchRejectsUnreachableService(t *testing.T) {
	c := homeCluster(t)
	cfg := validConfig()
	cfg.Modules[0].Services = []string{"undeployed_service"}
	if _, err := c.Launch(cfg, nil); err == nil {
		t.Error("Launch accepted module using undeployed service")
	}
}

func TestFitnessPipelineEndToEnd(t *testing.T) {
	c := homeCluster(t)
	cfg := apps.FitnessConfig("fit", 20, "squat")
	p, err := c.Launch(cfg, core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	res, err := p.Run(context.Background(), 3*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("result:\n%s", res)

	if res.Delivered < 5 {
		t.Errorf("delivered %d frames in 3s at 20fps, want >= 5", res.Delivered)
	}
	if res.FPS <= 0 {
		t.Error("no delivered FPS")
	}
	if res.Source.Captured == 0 {
		t.Error("source captured nothing")
	}
	// All Fig-6 stages must be measured. The activity stage only fires
	// once the 15-frame window fills, which slow (race-detector) builds
	// may not reach.
	required := []string{"load_frame", "pose", "rep_count", "display", "total"}
	if res.Delivered >= 16 {
		required = append(required, "activity")
	}
	for _, stage := range required {
		if res.Stages[stage].Count == 0 {
			t.Errorf("stage %q not measured (stages: %v)", stage, res.Stages)
		}
	}
	if res.E2E.Count == 0 {
		t.Error("no end-to-end latency samples")
	}
	// The pose stage dominates (it carries the 15ms test-scaled DNN cost).
	if res.Stages["pose"].Mean < res.Stages["rep_count"].Mean {
		t.Error("pose stage should dominate rep counting")
	}

	// No frame leaks anywhere after the run drains.
	deadline := time.Now().Add(3 * time.Second)
	for _, devName := range c.DeviceNames() {
		d, _ := c.Device(devName)
		for d.Store().Len() > 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := d.Store().Len(); n > 0 {
			t.Errorf("device %s leaks %d frames", devName, n)
		}
	}
}

func TestFitnessPipelineBaselinePlan(t *testing.T) {
	reg := fastRegistry(t)
	c, err := core.NewCluster(apps.BaselineClusterSpec(), reg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	cfg := apps.FitnessConfig("fitb", 20, "squat")
	p, err := c.Launch(cfg, core.BaselinePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	res, err := p.Run(context.Background(), 1500*time.Millisecond)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("baseline result:\n%s", res)
	// Loose bound: race-detector builds slow the pixel path heavily.
	if res.Delivered < 2 {
		t.Errorf("baseline delivered %d frames", res.Delivered)
	}
	// All modules on the phone: pose calls were remote.
	phone, _ := c.Device("phone")
	if phone.Metrics().Histogram("service."+services.PoseDetector+".remote").Count() == 0 {
		t.Error("baseline made no remote pose calls")
	}
}

func TestVideoPipeBeatsBaseline(t *testing.T) {
	// The headline comparison at a saturating source rate, with
	// test-scaled costs: co-location must deliver more FPS than the
	// remote-API baseline.
	reg := fastRegistry(t)

	run := func(spec core.ClusterSpec, planner core.Planner, name string) float64 {
		c, err := core.NewCluster(spec, reg)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		defer c.Close()
		p, err := c.Launch(apps.FitnessConfig(name, 60, "squat"), planner)
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		res, err := p.Run(context.Background(), 2*time.Second)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.FPS
	}

	vp := run(apps.HomeClusterSpec(), core.CoLocatePlanner{}, "vp")
	bl := run(apps.BaselineClusterSpec(), core.BaselinePlanner{}, "bl")
	t.Logf("videopipe %.2f fps vs baseline %.2f fps", vp, bl)
	if vp <= bl {
		t.Errorf("videopipe (%.2f fps) did not beat baseline (%.2f fps)", vp, bl)
	}
}

func TestTwoPipelinesShareServices(t *testing.T) {
	c := homeCluster(t)
	fit, err := c.Launch(apps.FitnessConfig("fit2", 10, "squat"), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch(fitness): %v", err)
	}
	gest, err := c.Launch(apps.GestureConfig("gest2", 10, "clap"), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch(gesture): %v", err)
	}

	var wg sync.WaitGroup
	var fitRes, gestRes core.RunResult
	var fitErr, gestErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		fitRes, fitErr = fit.Run(context.Background(), 3*time.Second)
	}()
	go func() {
		defer wg.Done()
		gestRes, gestErr = gest.Run(context.Background(), 3*time.Second)
	}()
	wg.Wait()
	if fitErr != nil || gestErr != nil {
		t.Fatalf("Run: %v / %v", fitErr, gestErr)
	}
	// Thresholds are loose: under the race detector the pixel work runs an
	// order of magnitude slower.
	if fitRes.Delivered < 2 || gestRes.Delivered < 2 {
		t.Errorf("shared pipelines delivered %d / %d frames", fitRes.Delivered, gestRes.Delivered)
	}
	// Both pipelines hit the same pose pool.
	pool, err := c.Pool(services.PoseDetector)
	if err != nil {
		t.Fatalf("Pool: %v", err)
	}
	if pool.Calls() < fitRes.Delivered+gestRes.Delivered {
		t.Errorf("pose pool served %d calls, want >= %d", pool.Calls(), fitRes.Delivered+gestRes.Delivered)
	}
}

func TestGesturePipelineTogglesIoT(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.GestureConfig("gesttoggle", 15, "clap"), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	res, err := p.Run(context.Background(), 2500*time.Millisecond)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("gesture result:\n%s", res)
	if res.Stages["light_toggles"].Count == 0 {
		t.Error("clapping never toggled the light")
	}
}

func TestFallPipelineAlerts(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.FallConfig("falltest", 15), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	res, err := p.Run(context.Background(), 3*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("fall result:\n%s", res)
	if res.Stages["fall_alerts"].Count == 0 {
		t.Error("fall never alerted")
	}
}

func TestPipelineRunTwiceAndConcurrentRunRejected(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.FitnessConfig("fit3", 10, "squat"), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx, 500*time.Millisecond)
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := p.Run(ctx, time.Millisecond); err == nil {
		t.Error("concurrent Run accepted")
	}
	<-done
	if _, err := p.Run(ctx, 200*time.Millisecond); err != nil {
		t.Errorf("second Run: %v", err)
	}
	p.Close()
	if _, err := p.Run(ctx, time.Millisecond); err == nil {
		t.Error("Run on closed pipeline accepted")
	}
}

func TestLaunchParsedListing1Config(t *testing.T) {
	// The Listing-1 dialect round trip: parse, launch, run.
	c := homeCluster(t)
	text := `
	name: parsed
	modules: [
		{ name: streamer
		  source: "function event_received(m) { call_module('analyze', {frame_ref: m.frame_ref, captured_ms: m.captured_ms}); }"
		  next_module: analyze }
		{ name: analyze
		  source: "function event_received(m) { var r = call_service('pose_detector', {frame_ref: m.frame_ref}); metric('found', r.found ? 1 : 0); frame_done(); }"
		  service: ['pose_detector'] }
	]
	source : { device: phone, module: streamer, fps: 15, width: 480, height: 360, scene: wave }
	`
	cfg, err := core.ParseConfig("parsed", text, nil)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	p, err := c.Launch(*cfg, core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	res, err := p.Run(context.Background(), time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stages["found"].Count == 0 {
		t.Error("parsed pipeline processed no frames")
	}
	if res.Stages["found"].Mean == 0 {
		t.Error("pose never found in parsed pipeline")
	}
}

func TestLinkProfilesAffectPlacedPipelines(t *testing.T) {
	// Sanity: with a WAN between phone and desktop, e2e latency grows.
	reg := fastRegistry(t)
	spec := apps.HomeClusterSpec()
	c1, err := core.NewCluster(spec, reg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c1.Close()
	spec2 := apps.HomeClusterSpec()
	c2, err := core.NewCluster(spec2, reg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c2.Close()
	// An exaggerated satellite-like link so the difference dwarfs
	// compute noise (the race detector slows pixel work a lot).
	c2.Network().SetLink("phone", "desktop", netsim.LinkProfile{Latency: 150 * time.Millisecond})

	run := func(c *core.Cluster, name string) time.Duration {
		p, err := c.Launch(apps.FitnessConfig(name, 10, "squat"), core.CoLocatePlanner{})
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		res, err := p.Run(context.Background(), 1200*time.Millisecond)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.E2E.Mean
	}
	wifi := run(c1, "wifi")
	wan := run(c2, "wan")
	t.Logf("e2e wifi=%v wan=%v", wifi, wan)
	if wan <= wifi {
		t.Errorf("WAN e2e (%v) not slower than Wi-Fi (%v)", wan, wifi)
	}
}

// TestOfferInjection drives a pipeline through the public Offer path —
// the injection API open-loop load generators use instead of Run — and
// asserts the §2.3 contract holds: Offer never blocks, admission is
// bounded by the credit pool, rejected frames are dropped at the source,
// and admitted frames complete with end-to-end latency recorded from
// their Captured timestamp.
func TestOfferInjection(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.FitnessConfig("offer", 10, ""), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}

	p.PrimeCredits()
	const burst = 16
	admitted := 0
	start := time.Now()
	for i := 0; i < burst; i++ {
		f, err := frame.NewPooled(apps.FrameWidth, apps.FrameHeight)
		if err != nil {
			t.Fatalf("NewPooled: %v", err)
		}
		f.Seq = uint64(i)
		f.Captured = time.Now()
		if p.Offer(f) {
			admitted++
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("16 Offers took %v; Offer must not block", elapsed)
	}
	if admitted == 0 {
		t.Fatal("no frame admitted from a primed credit pool")
	}
	if admitted == burst {
		t.Errorf("all %d burst frames admitted; expected source-side drops once credits ran out", burst)
	}

	// Solid frames carry no subject, so pose_detection finishes them
	// (frame_done on !found); completion is recorded under that module.
	deadline := time.Now().Add(5 * time.Second)
	done := func() uint64 {
		return c.Metrics().Meter("pipeline.offer.pose_detection.frames_done").Count()
	}
	for done() < uint64(admitted) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := done(); got != uint64(admitted) {
		t.Fatalf("frames_done = %d, want %d (every admitted frame must complete)", got, admitted)
	}
	e2e := c.Metrics().Histogram("pipeline.offer.pose_detection.e2e")
	if got := e2e.Count(); got != uint64(admitted) {
		t.Errorf("e2e observations = %d, want %d", got, admitted)
	}
	if e2e.Max() <= 0 {
		t.Errorf("e2e latency not measured from Captured: max = %v", e2e.Max())
	}
}

// A module that calls frame_done() twice in one event completes one frame
// and returns one credit: with another frame still in flight, a second
// return would leave available + in-flight above the window — one more frame
// in the pipeline than §2.3 admits, for the rest of the run.
func TestFrameDoneTwiceReturnsOneCredit(t *testing.T) {
	// The held frame waits in a service call until the test opens the gate.
	gate := make(chan struct{})
	reg := services.NewRegistry()
	if err := reg.Register(services.Spec{Name: "gate", Handler: func(ctx context.Context, _ services.Request) (services.Response, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return services.Response{Result: map[string]script.Value{}}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCluster(core.ClusterSpec{
		Devices:  []device.Config{{Name: "desktop", Class: device.Desktop}},
		Services: []core.ServicePlacement{{Service: "gate", Device: "desktop"}},
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	p, err := c.Launch(core.PipelineConfig{
		Name: "twice",
		Modules: []core.ModuleConfig{
			{Name: "split", Next: []string{"hold", "eager"}, Source: `function event_received(m) {
				if (m.seq == 0) { call_module("hold", {frame_ref: m.frame_ref}); }
				else { call_module("eager", {frame_ref: m.frame_ref}); }
			}`},
			{Name: "hold", Services: []string{"gate"}, Source: `function event_received(m) {
				call_service("gate", {});
				frame_done();
			}`},
			{Name: "eager", Source: `function event_received(m) { frame_done(); frame_done(); }`},
		},
		Source: core.SourceConfig{Device: "desktop", FirstModule: "split", FPS: 10, Width: 8, Height: 8},
	}, core.CoLocatePlanner{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ResizeCredits(2); err != nil {
		t.Fatal(err)
	}
	p.PrimeCredits()
	for seq := uint64(0); seq < 2; seq++ {
		// The entry module's single inbox slot may still hold the frame
		// before; an offer refused for that is simply made again.
		waitCond(t, 5*time.Second, func() bool {
			f := frame.MustNewPooled(8, 8)
			f.Seq, f.Captured = seq, time.Now()
			return p.Offer(f)
		})
	}
	eager := c.Metrics().Meter("module.twice.eager.events")
	waitCond(t, 5*time.Second, func() bool { return eager.Count() == 1 })
	if held := c.Metrics().Meter("pipeline.twice.hold.frames_done").Count(); held != 0 {
		t.Fatal("the held frame finished first; the test needs it in flight")
	}
	if got := p.CreditsAvail(); got != 1 {
		t.Errorf("credits available = %d with one frame in flight in a window of 2, want 1", got)
	}
	if got := c.Metrics().Meter("pipeline.twice.eager.frames_done").Count(); got != 1 {
		t.Errorf("frames_done = %d for one frame", got)
	}
	close(gate)
	waitCond(t, 5*time.Second, func() bool { return p.CreditsAvail() == 2 })
}
