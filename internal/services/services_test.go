package services

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"image/color"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unique"

	"videopipe/internal/frame"
	"videopipe/internal/metrics"
	"videopipe/internal/netsim"
	"videopipe/internal/script"
	"videopipe/internal/vision"
	"videopipe/internal/wire"
)

// testRegistry builds a standard registry once, with a small training
// corpus to keep tests fast.
var (
	regOnce sync.Once
	regVal  *Registry
	regErr  error
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	regOnce.Do(func() {
		opts := DefaultOptions()
		// Shrink simulated costs so functional tests run fast; calibration
		// matters only for the benchmark harness.
		opts.PoseCost = 2 * time.Millisecond
		opts.ActivityCost = time.Millisecond
		opts.RepCost = time.Millisecond
		opts.DisplayCost = time.Millisecond
		opts.ObjectCost = time.Millisecond
		opts.ClassifyCost = time.Millisecond
		opts.FaceCost = time.Millisecond
		opts.FallCost = time.Millisecond
		cfg := vision.DefaultDatasetConfig()
		cfg.SequencesPerActivity = 6
		cfg.FramesPerSequence = 45
		opts.DatasetConfig = cfg
		regVal, regErr = NewStandardRegistry(opts)
	})
	if regErr != nil {
		t.Fatalf("NewStandardRegistry: %v", regErr)
	}
	return regVal
}

// openGate is a pause gate that never holds a request: the pools a test
// serves run on no device that could pause.
func openGate(context.Context) error { return nil }

func poolFor(t *testing.T, name string) *Pool {
	t.Helper()
	spec, err := testRegistry(t).Lookup(name)
	if err != nil {
		t.Fatalf("Lookup(%s): %v", name, err)
	}
	p, err := NewPool(spec, 1, 1.0)
	if err != nil {
		t.Fatalf("NewPool(%s): %v", name, err)
	}
	return p
}

func sceneFrame(t *testing.T, a vision.Activity, phase float64) *frame.Frame {
	t.Helper()
	f := frame.MustNew(640, 480)
	pose := vision.SynthesizePose(a, phase, vision.DefaultSubject(), nil)
	vision.RenderScene(f, pose)
	return f
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	ok := Spec{Name: "x", Handler: func(context.Context, Request) (Response, error) { return Response{}, nil }}
	if err := r.Register(ok); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := r.Register(ok); err == nil {
		t.Error("duplicate Register succeeded")
	}
	if _, err := r.Lookup("x"); err != nil {
		t.Errorf("Lookup: %v", err)
	}
	if _, err := r.Lookup("nope"); err == nil {
		t.Error("Lookup(nope) succeeded")
	}
	bad := []Spec{
		{},
		{Name: "y"},
		{Name: "y", Handler: ok.Handler, Cost: -1},
		{Name: "y", Handler: ok.Handler, SerialFraction: 1.5},
	}
	for i, s := range bad {
		if err := r.Register(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestStandardRegistryHasAllServices(t *testing.T) {
	r := testRegistry(t)
	for _, name := range []string{
		PoseDetector, ActivityClassifier, RepCounter, Display,
		ObjectDetector, ImageClassifier, FaceDetector, FallDetector,
	} {
		if _, err := r.Lookup(name); err != nil {
			t.Errorf("missing standard service %s", name)
		}
	}
	if len(r.specs) != 8 {
		t.Errorf("registry has %d services, want 8", len(r.specs))
	}
}

func TestInstancePadsToCost(t *testing.T) {
	spec := Spec{
		Name: "timed", Cost: 50 * time.Millisecond,
		Handler: func(context.Context, Request) (Response, error) { return Response{}, nil },
	}
	inst, err := NewPool(spec, 1, 1.0)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	start := time.Now()
	if _, err := inst.Invoke(context.Background(), Request{}); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 48*time.Millisecond {
		t.Errorf("invoke took %v, want >= ~50ms simulated cost", elapsed)
	}
	if inst.Calls() != 1 {
		t.Errorf("Calls = %d", inst.Calls())
	}
}

func TestInstanceCPUFactorScalesCost(t *testing.T) {
	spec := Spec{
		Name: "timed", Cost: 30 * time.Millisecond,
		Handler: func(context.Context, Request) (Response, error) { return Response{}, nil },
	}
	slow, _ := NewPool(spec, 1, 0.5) // half-speed device: 60ms
	start := time.Now()
	slow.Invoke(context.Background(), Request{})
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Errorf("half-speed invoke took %v, want >= ~60ms", elapsed)
	}
	if _, err := NewPool(spec, 1, 0); err == nil {
		t.Error("zero cpu factor accepted")
	}
}

func TestInstanceWorkerLimit(t *testing.T) {
	spec := Spec{
		Name: "limited", Cost: 40 * time.Millisecond, Workers: 1,
		Handler: func(context.Context, Request) (Response, error) { return Response{}, nil },
	}
	inst, _ := NewPool(spec, 1, 1.0)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst.Invoke(context.Background(), Request{})
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 110*time.Millisecond {
		t.Errorf("3 serialized 40ms calls took %v, want >= ~120ms", elapsed)
	}
}

func TestInstanceTwoWorkersParallel(t *testing.T) {
	spec := Spec{
		Name: "par", Cost: 40 * time.Millisecond, Workers: 2,
		Handler: func(context.Context, Request) (Response, error) { return Response{}, nil },
	}
	inst, _ := NewPool(spec, 1, 1.0)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst.Invoke(context.Background(), Request{})
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 70*time.Millisecond {
		t.Errorf("2 parallel 40ms calls took %v, want ~40ms", elapsed)
	}
}

func TestInstanceSerialFractionContends(t *testing.T) {
	spec := Spec{
		Name: "gpu", Cost: 60 * time.Millisecond, Workers: 2, SerialFraction: 1.0,
		Handler: func(context.Context, Request) (Response, error) { return Response{}, nil },
	}
	inst, _ := NewPool(spec, 1, 1.0)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst.Invoke(context.Background(), Request{})
		}()
	}
	wg.Wait()
	// Fully serialized: 2 x 60ms despite 2 workers.
	if elapsed := time.Since(start); elapsed < 110*time.Millisecond {
		t.Errorf("fully-serial calls took %v, want >= ~120ms", elapsed)
	}
}

func TestInstanceContextCancelled(t *testing.T) {
	spec := Spec{
		Name: "slow", Cost: time.Second,
		Handler: func(context.Context, Request) (Response, error) { return Response{}, nil },
	}
	inst, _ := NewPool(spec, 1, 1.0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := inst.Invoke(ctx, Request{}); err == nil {
		t.Error("Invoke survived context cancellation")
	}
}

func TestInstanceHandlerError(t *testing.T) {
	spec := Spec{
		Name: "failing", Handler: func(context.Context, Request) (Response, error) {
			return Response{}, context.DeadlineExceeded
		},
	}
	inst, _ := NewPool(spec, 1, 1.0)
	if _, err := inst.Invoke(context.Background(), Request{}); err == nil {
		t.Error("handler error swallowed")
	}
	if inst.Calls() != 0 {
		t.Error("failed call counted as served")
	}
}

func TestPoolScale(t *testing.T) {
	spec := Spec{
		Name: "s", Handler: func(context.Context, Request) (Response, error) { return Response{}, nil },
	}
	p, err := NewPool(spec, 1, 1.0)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	if p.Size() != 1 {
		t.Errorf("Size = %d", p.Size())
	}
	if err := p.Scale(3); err != nil {
		t.Fatalf("Scale up: %v", err)
	}
	if p.Size() != 3 {
		t.Errorf("Size after scale = %d", p.Size())
	}
	if err := p.Scale(1); err != nil {
		t.Fatalf("Scale down: %v", err)
	}
	if p.Size() != 1 {
		t.Errorf("Size after shrink = %d", p.Size())
	}
	if err := p.Scale(0); err == nil {
		t.Error("Scale(0) succeeded")
	}
	if _, err := NewPool(spec, 0, 1.0); err == nil {
		t.Error("NewPool(0) succeeded")
	}
}

func TestPoolScaleOutIncreasesThroughput(t *testing.T) {
	// The §5.2.2 scale-out story at micro level: 1 instance x 1 worker at
	// 30ms serves ~33 rps; 2 instances serve ~66.
	spec := Spec{
		Name: "w", Cost: 30 * time.Millisecond, Workers: 1,
		Handler: func(context.Context, Request) (Response, error) { return Response{}, nil },
	}
	run := func(n int) int {
		p, _ := NewPool(spec, n, 1.0)
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		var served atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ { // two client pipelines
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					if _, err := p.Invoke(ctx, Request{}); err == nil {
						served.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		return int(served.Load())
	}
	one := run(1)
	two := run(2)
	if float64(two) < 1.5*float64(one) {
		t.Errorf("scale-out throughput: 1 instance = %d, 2 instances = %d; want ~2x", one, two)
	}
}

func TestPoseService(t *testing.T) {
	p := poolFor(t, PoseDetector)
	resp, err := p.Invoke(context.Background(), Request{Frame: sceneFrame(t, vision.Squat, 0.3)})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if resp.Result["found"] != true {
		t.Fatalf("pose not found: %v", resp.Result)
	}
	poseObj, ok := resp.Result["pose"].(*script.Object)
	if !ok {
		t.Fatal("result missing pose object")
	}
	if _, err := poseFromValue(poseObj); err != nil {
		t.Errorf("returned pose unparseable: %v", err)
	}
	// No frame -> error.
	if _, err := p.Invoke(context.Background(), Request{}); err == nil {
		t.Error("pose call without frame succeeded")
	}
	// Empty scene -> found=false.
	empty := frame.MustNew(64, 64)
	resp, err = p.Invoke(context.Background(), Request{Frame: empty})
	if err != nil {
		t.Fatalf("Invoke(empty): %v", err)
	}
	if resp.Result["found"] != false {
		t.Error("empty frame reported a person")
	}
}

func TestActivityService(t *testing.T) {
	p := poolFor(t, ActivityClassifier)
	poses, _ := vision.SynthesizeSequence(vision.Squat, vision.WindowSize, 15, 0.5, vision.DefaultSubject(), nil)
	window := make([]script.Value, len(poses))
	for i, ps := range poses {
		window[i] = poseValue(ps)
	}
	args := argsOf(map[string]script.Value{"poses": &script.Array{Elems: window}})
	resp, err := p.Invoke(context.Background(), Request{Args: args})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if resp.Result["activity"] != "squat" {
		t.Errorf("activity = %v, want squat", resp.Result["activity"])
	}
	// Validation failures.
	if _, err := p.Invoke(context.Background(), Request{Args: argsOf(map[string]script.Value{})}); err == nil {
		t.Error("missing poses accepted")
	}
	if _, err := p.Invoke(context.Background(), Request{Args: argsOf(map[string]script.Value{"poses": &script.Array{Elems: []script.Value{script.NewObject()}}})}); err == nil {
		t.Error("wrong window size accepted")
	}
}

func TestRepCounterServiceStatelessRoundTrip(t *testing.T) {
	p := poolFor(t, RepCounter)
	truth := 3
	fps, rate := 15.0, 0.5
	n := int(float64(truth)/rate*fps) + 1
	poses, _ := vision.SynthesizeSequence(vision.Squat, n, fps, rate, vision.DefaultSubject(), nil)

	// Every frame goes through the blob; a counter that never leaves memory
	// runs beside it and the two must agree frame for frame.
	live := vision.NewRepCounter(0, 0)
	state := ""
	var reps float64
	for i, pose := range poses {
		args := argsOf(map[string]script.Value{"state": state, "pose": poseValue(pose)})
		resp, err := p.Invoke(context.Background(), Request{Args: args})
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		state, _ = resp.Result["state"].(string)
		reps, _ = resp.Result["reps"].(float64)
		if want := live.Observe(pose); int(reps) != want || resp.Result["calibrated"] != live.Calibrated() {
			t.Fatalf("frame %d: service says reps %v calibrated %v, a live counter %d %v",
				i, reps, resp.Result["calibrated"], want, live.Calibrated())
		}
	}
	if vision.RepAccuracy(int(reps), truth) < 0.6 {
		t.Errorf("stateless rep counting: got %v reps, truth %d", reps, truth)
	}
	// Corrupt state rejected: bad base64, another version byte, a truncated
	// blob.
	blob, err := base64.StdEncoding.DecodeString(state)
	if err != nil || len(blob) == 0 {
		t.Fatalf("final state is not base64: %v", err)
	}
	otherVersion := append([]byte(nil), blob...)
	otherVersion[0]++
	for name, bad := range map[string]string{
		"bad base64":    "!!!",
		"other version": base64.StdEncoding.EncodeToString(otherVersion),
		"truncated":     base64.StdEncoding.EncodeToString(blob[:len(blob)-3]),
	} {
		args := argsOf(map[string]script.Value{"state": bad, "pose": poseValue(poses[0])})
		if _, err := p.Invoke(context.Background(), Request{Args: args}); err == nil {
			t.Errorf("%s state accepted", name)
		}
	}
}

func TestFallService(t *testing.T) {
	p := poolFor(t, FallDetector)
	poses, _ := vision.SynthesizeSequence(vision.Fall, 60, 15, 0.4, vision.DefaultSubject(), nil)
	live := vision.NewFallDetector()
	state := ""
	sawAlert := false
	for i, pose := range poses {
		args := argsOf(map[string]script.Value{"state": state, "pose": poseValue(pose)})
		resp, err := p.Invoke(context.Background(), Request{Args: args})
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		state, _ = resp.Result["state"].(string)
		if resp.Result["alert"] == true {
			sawAlert = true
		}
		if alert := live.Observe(pose); resp.Result["alert"] != alert || resp.Result["fallen"] != live.Fallen() {
			t.Fatalf("frame %d: service says alert %v fallen %v, a live detector %v %v",
				i, resp.Result["alert"], resp.Result["fallen"], alert, live.Fallen())
		}
	}
	if !sawAlert {
		t.Error("fall sequence never produced an alert")
	}
	blob, _ := base64.StdEncoding.DecodeString(state)
	for name, bad := range map[string][]byte{"other version": append([]byte{blob[0] + 1}, blob[1:]...), "truncated": blob[:len(blob)-1]} {
		args := argsOf(map[string]script.Value{"state": base64.StdEncoding.EncodeToString(bad), "pose": poseValue(poses[0])})
		if _, err := p.Invoke(context.Background(), Request{Args: args}); err == nil {
			t.Errorf("%s state accepted", name)
		}
	}
}

func TestObjectService(t *testing.T) {
	p := poolFor(t, ObjectDetector)
	f := frame.MustNew(320, 240)
	pose := vision.SynthesizePose(vision.Idle, 0, vision.Subject{CenterX: 80, CenterY: 120, Scale: 40}, nil)
	vision.RenderScene(f, pose)
	vision.DrawObject(f, "tv", 200, 40, 300, 110)
	resp, err := p.Invoke(context.Background(), Request{Frame: f})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	objs := resp.Result["objects"].(*script.Array).Elems
	foundTV := false
	for _, o := range objs {
		if m, ok := o.(*script.Object); ok && m.Get("label") == "tv" {
			foundTV = true
		}
	}
	if !foundTV {
		t.Errorf("tv not detected: %v", resp.Result)
	}
}

func TestClassifyServiceTrainAndPredict(t *testing.T) {
	p := poolFor(t, ImageClassifier)
	bright := frame.MustNew(32, 32)
	bright.Fill(colorRGBA(240, 220, 40))
	dark := frame.MustNew(32, 32)
	dark.Fill(colorRGBA(10, 10, 120))

	for i := 0; i < 3; i++ {
		if _, err := p.Invoke(context.Background(), Request{Args: argsOf(map[string]script.Value{"train": "day"}), Frame: bright}); err != nil {
			t.Fatalf("train: %v", err)
		}
		if _, err := p.Invoke(context.Background(), Request{Args: argsOf(map[string]script.Value{"train": "night"}), Frame: dark}); err != nil {
			t.Fatalf("train: %v", err)
		}
	}
	resp, err := p.Invoke(context.Background(), Request{Frame: bright})
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if resp.Result["label"] != "day" {
		t.Errorf("label = %v, want day", resp.Result["label"])
	}
}

func TestFaceService(t *testing.T) {
	p := poolFor(t, FaceDetector)
	resp, err := p.Invoke(context.Background(), Request{Frame: sceneFrame(t, vision.Idle, 0)})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if resp.Result["found"] != true {
		t.Fatalf("face not found: %v", resp.Result)
	}
	box, ok := resp.Result["box"].(*script.Object)
	if !ok {
		t.Fatal("no box in result")
	}
	// The nose must be inside the returned box.
	pose := vision.SynthesizePose(vision.Idle, 0, vision.DefaultSubject(), nil)
	nose := pose.Keypoints[vision.Nose]
	minX, _ := box.Get("min_x").(float64)
	maxX, _ := box.Get("max_x").(float64)
	minY, _ := box.Get("min_y").(float64)
	maxY, _ := box.Get("max_y").(float64)
	if nose.X < minX || nose.X > maxX || nose.Y < minY || nose.Y > maxY {
		t.Errorf("nose %v outside face box [%v %v %v %v]", nose, minX, minY, maxX, maxY)
	}
}

func TestDisplayService(t *testing.T) {
	p := poolFor(t, Display)
	f := sceneFrame(t, vision.Squat, 0.2)
	pose := vision.SynthesizePose(vision.Squat, 0.2, vision.DefaultSubject(), nil)
	args := argsOf(map[string]script.Value{"pose": poseValue(pose), "activity": "squat", "reps": 3.0, "return_frame": true})
	resp, err := p.Invoke(context.Background(), Request{Args: args, Frame: f})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if resp.Frame == nil {
		t.Fatal("display returned no frame")
	}
	if resp.Frame == f {
		t.Error("display mutated the input frame instead of cloning")
	}
	// Banner row painted.
	c := resp.Frame.ToImage().RGBAAt(5, 5)
	if c == f.ToImage().RGBAAt(5, 5) {
		t.Error("activity banner not rendered")
	}
	// Rep ticks painted near the bottom-left.
	tick := resp.Frame.ToImage().RGBAAt(10, resp.Frame.Height-12)
	if tick.R != 255 || tick.G != 255 || tick.B != 255 {
		t.Errorf("rep tick not rendered: %v", tick)
	}
}

func TestServerClientRemoteCall(t *testing.T) {
	nw := netsim.NewNetwork(netsim.LinkProfile{})
	spec, err := testRegistry(t).Lookup(PoseDetector)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	pool, _ := NewPool(spec, 1, 1.0)
	srv, err := NewServer(nw.Host("desktop"), 0, map[string]*Pool{PoseDetector: pool}, frame.JPEGCodec{Quality: 85}, openGate)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	client := NewClient(nw.Host("phone"), srv.Addr().String(), frame.JPEGCodec{Quality: 85})
	defer client.Close()

	resp, err := client.Call(context.Background(), PoseDetector, nil, sceneFrame(t, vision.Clap, 0.4))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Result["found"] != true {
		t.Errorf("remote pose call: %v", resp.Result)
	}

	// Unknown service -> remote error.
	if _, err := client.Call(context.Background(), "nope", nil, nil); err == nil {
		t.Error("unknown service call succeeded")
	}
}

func TestServerRoundTripsFrames(t *testing.T) {
	nw := netsim.NewNetwork(netsim.LinkProfile{})
	spec, _ := testRegistry(t).Lookup(Display)
	pool, _ := NewPool(spec, 1, 1.0)
	srv, err := NewServer(nw.Host("tv"), 0, map[string]*Pool{Display: pool}, nil, openGate)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	client := NewClient(nw.Host("desktop"), srv.Addr().String(), nil)
	defer client.Close()
	resp, err := client.Call(context.Background(), Display, argsOf(map[string]script.Value{"reps": 2.0, "return_frame": true}), sceneFrame(t, vision.Idle, 0))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Frame == nil {
		t.Fatal("display frame lost in transfer")
	}
	if resp.Frame.Width != 640 || resp.Frame.Height != 480 {
		t.Errorf("returned frame %dx%d", resp.Frame.Width, resp.Frame.Height)
	}
}

func colorRGBA(r, g, b uint8) color.RGBA {
	return color.RGBA{R: r, G: g, B: b, A: 255}
}

func TestPoolAccessorsAndWaitStats(t *testing.T) {
	spec := Spec{
		Name: "accessors", Cost: 20 * time.Millisecond, Workers: 1,
		Handler: func(context.Context, Request) (Response, error) { return Response{}, nil },
	}
	pool, err := NewPool(spec, 1, 1.0)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	if pool.Name() != "accessors" {
		t.Errorf("Name = %q", pool.Name())
	}

	// Two concurrent callers against one worker: the loser queues, so
	// wait stats record contention.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Invoke(context.Background(), Request{})
		}()
	}
	wg.Wait()
	if got := pool.Calls(); got != 3 {
		t.Errorf("Calls = %d, want 3", got)
	}
	ws := pool.WaitStats()
	if ws.Count != 3 {
		t.Errorf("WaitStats count = %d, want 3", ws.Count)
	}
	if ws.Max < 10*time.Millisecond {
		t.Errorf("WaitStats max = %v, want queueing visible", ws.Max)
	}
}

// RecentWaitP99 interpolates as Histogram.Quantile does over the pool's
// last metrics.RecentTailLen waits, however many the pool has recorded; the
// whole-run histogram, which holds every one of them here, is the oracle.
func TestPoolRecentWaitMatchesHistogram(t *testing.T) {
	p, _ := NewPool(Spec{Name: "ring", Handler: func(context.Context, Request) (Response, error) { return Response{}, nil }}, 1, 1.0)
	if got := p.RecentWaitP99(); got != 0 {
		t.Errorf("RecentWaitP99 = %v before the first request", got)
	}
	for i := 1; i <= 3*metrics.RecentTailLen; i++ {
		p.observeWait(time.Now().Add(-time.Duration((i*7919)%997) * time.Microsecond))
		if i%metrics.RecentTailLen != 0 {
			continue
		}
		waits := p.wait.Samples()
		var h metrics.Histogram
		for _, w := range waits[len(waits)-metrics.RecentTailLen:] {
			h.Observe(w)
		}
		if got, want := p.RecentWaitP99(), h.Snapshot().P99; got != want {
			t.Errorf("after %d waits: RecentWaitP99 = %v, histogram of the last %d says %v", i, got, metrics.RecentTailLen, want)
		}
	}
}

// Growing a pool restarts its recent waits: those in the ring, and those of
// requests enqueued before the grow that finish after it, were queued
// behind a smaller pool. A shrink or a Kill keeps them, as widening a lane
// keeps its tail. The grows race Invoke, which the race detector checks.
func TestPoolRecentWaitRestartsOnGrow(t *testing.T) {
	release := make(chan struct{})
	p, _ := NewPool(Spec{Name: "ring", Workers: 1, Handler: func(_ context.Context, req Request) (Response, error) {
		if req.Frame != nil {
			<-release
		}
		return Response{}, nil
	}}, 1, 1.0)
	ms := time.Millisecond
	for i := 0; i < metrics.RecentTailLen; i++ {
		p.observeWait(time.Now().Add(-50 * ms))
	}
	if got := p.RecentWaitP99(); got < 50*ms {
		t.Fatalf("RecentWaitP99 = %v after 50 ms waits", got)
	}

	// A request enqueued before the grow, still running after it.
	held := make(chan error)
	go func() {
		_, err := p.Invoke(context.Background(), Request{Frame: frame.MustNew(1, 1)})
		held <- err
	}()
	for p.BusyWorkers() == 0 {
		time.Sleep(ms)
	}
	if err := p.Scale(2); err != nil {
		t.Fatal(err)
	}
	if got := p.RecentWaitP99(); got != 0 {
		t.Errorf("RecentWaitP99 = %v after the pool grew, want 0", got)
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if got := p.RecentWaitP99(); got != 0 {
		t.Errorf("RecentWaitP99 = %v after a request queued behind the smaller pool finished, want 0", got)
	}
	if got := p.WaitStats().Count; got != metrics.RecentTailLen+1 {
		t.Errorf("WaitStats count = %d, want %d: the whole-run report keeps every wait", got, metrics.RecentTailLen+1)
	}

	time.Sleep(30 * ms) // so a 20 ms wait starts after the grow
	p.observeWait(time.Now().Add(-20 * ms))
	fresh := p.RecentWaitP99()
	if fresh < 20*ms {
		t.Fatalf("RecentWaitP99 = %v after a 20 ms wait enqueued after the grow", fresh)
	}
	if err := p.Scale(1); err != nil {
		t.Fatal(err)
	}
	if got := p.RecentWaitP99(); got != fresh {
		t.Errorf("RecentWaitP99 = %v after the pool shrank, want %v", got, fresh)
	}
	p.Kill(1)
	if got := p.RecentWaitP99(); got != fresh {
		t.Errorf("RecentWaitP99 = %v after a Kill, want %v", got, fresh)
	}

	// Grows and shrinks under concurrent callers.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Invoke(context.Background(), Request{})
				p.RecentWaitP99()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := p.Scale(1 + i%3); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestInstanceSpecAccessor(t *testing.T) {
	spec := Spec{Name: "s", Handler: func(context.Context, Request) (Response, error) { return Response{}, nil }}
	inst, _ := NewPool(spec, 1, 1.0)
	if inst.InFlight() != 0 {
		t.Errorf("idle InFlight = %d", inst.InFlight())
	}
}

// argsOf is the argument object holding fields.
func argsOf(fields map[string]script.Value) *script.Object {
	return script.FromGo(fields).(*script.Object)
}

func TestArgHelpers(t *testing.T) {
	args := argsOf(map[string]script.Value{"s": "text", "f": 1.5, "b": true})
	if v, ok := argString(args, "s"); !ok || v != "text" {
		t.Errorf("argString = %q, %v", v, ok)
	}
	if _, ok := argString(args, "f"); ok {
		t.Error("argString accepted a float")
	}
	if v, ok := args.Num(unique.Make("f")); !ok || v != 1.5 {
		t.Errorf("Num = %v, %v", v, ok)
	}
	if _, ok := args.Num(unique.Make("b")); ok {
		t.Error("Num accepted a bool")
	}
	if _, ok := args.Num(unique.Make("missing")); ok {
		t.Error("Num accepted a missing key")
	}
}

func TestBannerColorStable(t *testing.T) {
	a := bannerColor("squat")
	b := bannerColor("squat")
	if a != b {
		t.Error("banner color not deterministic")
	}
	if bannerColor("squat") == bannerColor("wave") {
		t.Error("distinct activities share a banner color")
	}
}

func TestDisplayWithoutReturnFrame(t *testing.T) {
	p := poolFor(t, Display)
	resp, err := p.Invoke(context.Background(), Request{
		Args:  argsOf(map[string]script.Value{"reps": 1.0}),
		Frame: frame.MustNew(32, 24),
	})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if resp.Frame != nil {
		t.Error("display shipped a frame back without return_frame")
	}
	if resp.Result["rendered"] != true {
		t.Errorf("result = %v", resp.Result)
	}
}

func TestPoolKill(t *testing.T) {
	spec := Spec{
		Name: "victim", Handler: func(context.Context, Request) (Response, error) { return Response{}, nil },
	}
	p, _ := NewPool(spec, 3, 1.0)
	if got := p.Kill(2); got != 2 {
		t.Errorf("Kill(2) = %d", got)
	}
	if p.Size() != 1 {
		t.Errorf("Size after Kill(2) = %d", p.Size())
	}
	// Unlike Scale, Kill may take the pool to zero.
	if got := p.Kill(5); got != 1 {
		t.Errorf("Kill(5) = %d, want 1 (all that remained)", got)
	}
	if p.Size() != 0 {
		t.Errorf("Size after killing all = %d", p.Size())
	}
	if _, err := p.Invoke(context.Background(), Request{}); err == nil {
		t.Error("Invoke on an emptied pool succeeded")
	}
	if got := p.Kill(1); got != 0 {
		t.Errorf("Kill on empty pool = %d", got)
	}
	// Restart path: Scale restores service from zero.
	if err := p.Scale(2); err != nil {
		t.Fatalf("Scale after kill: %v", err)
	}
	if _, err := p.Invoke(context.Background(), Request{}); err != nil {
		t.Errorf("Invoke after restore: %v", err)
	}
}

func TestPoseValueRoundTrip(t *testing.T) {
	p := vision.SynthesizePose(vision.Wave, 0.7, vision.DefaultSubject(), rand.New(rand.NewSource(1)))
	v := poseValue(p)
	got, err := poseFromValue(v)
	if err != nil {
		t.Fatalf("poseFromValue: %v", err)
	}
	if got != p {
		t.Errorf("pose differs after the round trip:\n got %+v\nwant %+v", got, p)
	}
	// The value is what modules see: named keypoints, a box, a score.
	kp := v.Get("keypoints").(*script.Array).Elems[vision.Nose].(*script.Object)
	if kp.Get("name") != "nose" || kp.Get("x") != p.Keypoints[vision.Nose].X {
		t.Errorf("nose keypoint = %v", kp)
	}
	// And it survives the wire form unchanged.
	wire, err := script.AppendJSON(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	back, err := new(script.JSONDecoder).DecodeFields(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := poseFromValue(back); err != nil || got != p {
		t.Errorf("pose differs after JSON: %+v, %v", got, err)
	}
}

func TestPoseFromValueErrors(t *testing.T) {
	if _, err := poseFromValue(script.NewObject()); err == nil {
		t.Error("empty object accepted")
	}
	short := script.NewObject()
	short.Set("keypoints", &script.Array{Elems: []script.Value{1.0, 2.0}})
	if _, err := poseFromValue(short); err == nil {
		t.Error("short keypoint list accepted")
	}
	bad := &script.Array{}
	for i := 0; i < vision.NumKeypoints; i++ {
		bad.Elems = append(bad.Elems, "not an object")
	}
	malformed := script.NewObject()
	malformed.Set("keypoints", bad)
	if _, err := poseFromValue(malformed); err == nil {
		t.Error("malformed keypoints accepted")
	}
	kp := script.NewObject()
	kp.Set("x", "1")
	kp.Set("y", 2.0)
	for i := range bad.Elems {
		bad.Elems[i] = kp
	}
	if _, err := poseFromValue(malformed); err == nil {
		t.Error("non-numeric coordinate accepted")
	}
}

// TestServerRejectsBatchMarker sends the first part of the retired wire
// batch format: "!batch" is now just a service nobody registered, so the
// server answers with the ordinary unknown-service error.
func TestServerRejectsBatchMarker(t *testing.T) {
	nw := netsim.NewNetwork(netsim.LinkProfile{})
	spec := Spec{
		Name: "echo", Cost: time.Millisecond,
		Handler: func(_ context.Context, req Request) (Response, error) {
			return Response{Result: map[string]script.Value{"v": req.Args.Get("v")}}, nil
		},
	}
	pool, err := NewPool(spec, 1, 1.0)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	srv, err := NewServer(nw.Host("desktop"), 0, map[string]*Pool{"echo": pool}, nil, openGate)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	caller := wire.DialCaller(nw.Host("phone"), srv.Addr().String())
	defer caller.Close()

	_, err = caller.Call(context.Background(),
		wire.NewMessage([]byte("!batch"), []byte("echo"), []byte(`{"v":1}`), nil))
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, `unknown service "!batch"`) {
		t.Fatalf("batch-marker request returned %v, want the unknown-service remote error", err)
	}
	if pool.Calls() != 0 {
		t.Errorf("pool served %d calls for a rejected request", pool.Calls())
	}
	// The connection and server survive the rejected request.
	out, err := caller.Call(context.Background(), wire.NewMessage([]byte("echo"), []byte(`{"v":2}`)))
	if err != nil || !strings.Contains(out.StringPart(0), `"v":2`) {
		t.Errorf("ordinary call after the rejected one = %q, %v", out.StringPart(0), err)
	}
}

// TestRecycleResultDropsLargeMaps: a cleared map keeps its buckets, so only
// maps the size of a standard handler's result are kept for reuse.
func TestRecycleResultDropsLargeMaps(t *testing.T) {
	for len(resultMaps) > 0 {
		<-resultMaps
	}
	large := map[string]script.Value{}
	for i := range maxRecycledResult + 1 {
		large[string(rune('a'+i))] = float64(i)
	}
	RecycleResult(large)
	if n := len(resultMaps); n != 0 {
		t.Fatalf("after recycling a %d-entry map: %d kept, want 0", maxRecycledResult+1, n)
	}
	RecycleResult(result("found", true, "pose", nil, "x", 1.0))
	if n := len(resultMaps); n != 1 {
		t.Fatalf("after recycling a 3-entry map: %d kept, want 1", n)
	}
	if m := result(); len(m) != 0 {
		t.Errorf("recycled map holds %v, want it cleared", m)
	}
}

// A device forwards a frame as the bytes it arrived with, which is right
// only while the pixels in its store never change: every standard handler
// that takes a frame reads it and leaves it as it was, and one that draws
// (display with return_frame) draws on a copy.
func TestFrameServicesLeaveRequestPixels(t *testing.T) {
	pose := poseValue(vision.SynthesizePose(vision.Squat, 0.2, vision.DefaultSubject(), nil))
	for _, tc := range []struct {
		service string
		args    map[string]script.Value
	}{
		{PoseDetector, nil},
		{ObjectDetector, nil},
		{FaceDetector, nil},
		{ImageClassifier, map[string]script.Value{"train": "squat"}},
		{ImageClassifier, nil},
		{Display, map[string]script.Value{"pose": pose, "activity": "squat", "reps": 3.0}},
		{Display, map[string]script.Value{"pose": pose, "activity": "squat", "reps": 3.0, "return_frame": true}},
	} {
		p := poolFor(t, tc.service)
		f := sceneFrame(t, vision.Squat, 0.2)
		before := sha256.Sum256(f.Pix)
		resp, err := p.Invoke(context.Background(), Request{Args: argsOf(tc.args), Frame: f})
		if err != nil {
			t.Fatalf("%s %v: %v", tc.service, tc.args, err)
		}
		if sha256.Sum256(f.Pix) != before {
			t.Errorf("%s %v changed the request frame's pixels", tc.service, tc.args)
		}
		if resp.Frame != nil {
			if resp.Frame == f || &resp.Frame.Pix[0] == &f.Pix[0] {
				t.Errorf("%s returned the request frame itself", tc.service)
			}
			resp.Frame.Release()
		}
	}
}
