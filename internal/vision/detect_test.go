package vision

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"videopipe/internal/frame"
)

func TestDetectPoseRecoversKeypoints(t *testing.T) {
	f := frame.MustNew(640, 480)
	truth := SynthesizePose(Squat, 0.3, DefaultSubject(), nil)
	RenderScene(f, truth)

	got, ok := DetectPose(f)
	if !ok {
		t.Fatal("DetectPose found no person")
	}
	if got.Score < 0.9 {
		t.Errorf("Score = %v, want >= 0.9", got.Score)
	}
	for i := range truth.Keypoints {
		if d := truth.Keypoints[i].Dist(got.Keypoints[i]); d > 4 {
			t.Errorf("keypoint %s off by %.1f px", KeypointNames[i], d)
		}
	}
	for _, kp := range truth.Keypoints {
		if b := got.Box; kp.X < b.MinX || kp.X > b.MaxX || kp.Y < b.MinY || kp.Y > b.MaxY {
			t.Errorf("detected box %+v does not contain keypoint %v", got.Box, kp)
			break
		}
	}
}

func TestDetectPoseSurvivesJPEG(t *testing.T) {
	f := frame.MustNew(640, 480)
	truth := SynthesizePose(JumpingJack, 0.5, DefaultSubject(), nil)
	RenderScene(f, truth)

	data, err := frame.JPEGCodec{Quality: 85}.AppendEncode(nil, f)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	decoded, err := frame.JPEGCodec{}.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	got, ok := DetectPose(decoded)
	if !ok {
		t.Fatal("DetectPose found no person after JPEG round trip")
	}
	if got.Score < 0.8 {
		t.Errorf("post-JPEG Score = %v, want >= 0.8", got.Score)
	}
	for i := range truth.Keypoints {
		if d := truth.Keypoints[i].Dist(got.Keypoints[i]); d > 8 {
			t.Errorf("post-JPEG keypoint %s off by %.1f px", KeypointNames[i], d)
		}
	}
}

func TestDetectPoseEmptyFrame(t *testing.T) {
	f := frame.MustNew(160, 120)
	f.Fill(backgroundColor)
	if _, ok := DetectPose(f); ok {
		t.Error("DetectPose found a person in an empty scene")
	}
}

func TestDetectionEndToEndAcrossActivities(t *testing.T) {
	// Every activity must remain detectable at every phase — the pipeline
	// depends on it.
	rng := rand.New(rand.NewSource(3))
	for _, a := range AllActivities {
		for _, phase := range []float64{0.1, 0.6} {
			f := frame.MustNew(640, 480)
			s := DefaultSubject()
			s.Noise = 1
			truth := SynthesizePose(a, phase, s, rng)
			RenderScene(f, truth)
			got, ok := DetectPose(f)
			if !ok {
				t.Errorf("%s phase %.1f: not detected", a, phase)
				continue
			}
			if d := truth.HipCenter().Dist(got.HipCenter()); d > 6 {
				t.Errorf("%s phase %.1f: hip center off by %.1f px", a, phase, d)
			}
		}
	}
}

func TestSceneRendererProducesDetectableFrames(t *testing.T) {
	r := SceneRenderer(640, 480, OverheadPress, 0.5, DefaultSubject())
	f, err := r(0, 700*time.Millisecond)
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	if _, ok := DetectPose(f); !ok {
		t.Error("scene renderer output not detectable")
	}
}

func TestDetectObjects(t *testing.T) {
	f := frame.MustNew(320, 240)
	f.Fill(backgroundColor)
	if !DrawObject(f, "chair", 20, 120, 80, 200) {
		t.Fatal("DrawObject(chair) failed")
	}
	if !DrawObject(f, "tv", 150, 30, 280, 110) {
		t.Fatal("DrawObject(tv) failed")
	}
	if DrawObject(f, "spaceship", 0, 0, 5, 5) {
		t.Error("DrawObject accepted unknown label")
	}

	dets := DetectObjects(f)
	if len(dets) != 2 {
		t.Fatalf("detected %d objects, want 2: %+v", len(dets), dets)
	}
	// Sorted by MinY: tv first.
	if dets[0].Label != "tv" || dets[1].Label != "chair" {
		t.Errorf("labels = %s, %s", dets[0].Label, dets[1].Label)
	}
	tv := dets[0].Box
	if tv.MinX > 151 || tv.MaxX < 279 || tv.MinY > 31 || tv.MaxY < 109 {
		t.Errorf("tv box %+v doesn't cover drawn region", tv)
	}
	for _, d := range dets {
		if d.Score < 0.9 {
			t.Errorf("%s score %.2f, want >= 0.9 for solid rectangles", d.Label, d.Score)
		}
	}
}

func TestDetectObjectsSpeckleSuppression(t *testing.T) {
	f := frame.MustNew(100, 100)
	f.Fill(backgroundColor)
	c, _ := ObjectColor("cup")
	f.Set(50, 50, c) // single pixel: below minObjectPixels
	if dets := DetectObjects(f); len(dets) != 0 {
		t.Errorf("speckle detected as object: %+v", dets)
	}
}

func TestDetectObjectsSameClassSeparateInstances(t *testing.T) {
	f := frame.MustNew(200, 100)
	f.Fill(backgroundColor)
	DrawObject(f, "bottle", 10, 10, 30, 60)
	DrawObject(f, "bottle", 120, 10, 140, 60)
	dets := DetectObjects(f)
	if len(dets) != 2 {
		t.Fatalf("detected %d bottles, want 2 separate instances", len(dets))
	}
}

func TestDetectObjectsSurvivesJPEG(t *testing.T) {
	f := frame.MustNew(320, 240)
	f.Fill(backgroundColor)
	DrawObject(f, "book", 40, 40, 120, 90)
	data, err := frame.JPEGCodec{Quality: 85}.AppendEncode(nil, f)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := frame.JPEGCodec{}.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	dets := DetectObjects(dec)
	found := false
	for _, d := range dets {
		if d.Label == "book" {
			found = true
		}
	}
	if !found {
		t.Errorf("book not detected after JPEG: %+v", dets)
	}
}

func TestObjectClassNames(t *testing.T) {
	if len(objectClasses) == 0 {
		t.Fatal("no object classes")
	}
	seen := map[string]bool{}
	for _, oc := range objectClasses {
		n := oc.name
		if seen[n] {
			t.Errorf("duplicate class %q", n)
		}
		seen[n] = true
		if _, ok := ObjectColor(n); !ok {
			t.Errorf("class %q has no color", n)
		}
	}
}

// holdStripeWorkers keeps every stripe worker busy until the returned
// function is called, so the detections in between run inline.
func holdStripeWorkers() (release func()) {
	gate, done := make(chan struct{}), make(chan struct{})
	started := make(chan struct{}, frame.MaxStripes())
	go func() {
		frame.Stripes(64*frame.MaxStripes(), func(int, int, int) {
			started <- struct{}{}
			<-gate
		})
		close(done)
	}()
	for range frame.MaxStripes() {
		<-started
	}
	return func() { close(gate); <-done }
}

// detectionScenes are frames of several sizes, activities and phases, an
// empty one and a JPEG round trip.
func detectionScenes(t *testing.T) []*frame.Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var scenes []*frame.Frame
	for i, a := range AllActivities {
		f := frame.MustNew([]int{640, 480, 161, 97}[i%4], []int{480, 360, 121, 65}[i%4])
		s := DefaultSubject()
		s.Noise = 1
		RenderScene(f, SynthesizePose(a, 0.1+0.2*float64(i), s, rng))
		scenes = append(scenes, f)
	}
	empty := frame.MustNew(160, 120)
	empty.Fill(backgroundColor)
	data, err := frame.JPEGCodec{Quality: 85}.AppendEncode(nil, scenes[0])
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := frame.JPEGCodec{}.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return append(scenes, empty, decoded)
}

type detection struct {
	pose          Pose
	found         bool
	width, height int
}

func detect(f *frame.Frame) detection {
	d := detection{width: f.Width, height: f.Height}
	d.pose, d.found = DetectPose(f)
	return d
}

// TestDetectionsIdenticalAtAnyWorkerCount: a detection striped across the
// workers, one run inline with every worker held, and detections from four
// callers at once (sharing the workers and the scratch free list) agree bit
// for bit, because the per-stripe partials are integer sums.
func TestDetectionsIdenticalAtAnyWorkerCount(t *testing.T) {
	scenes := detectionScenes(t)
	release := holdStripeWorkers()
	inline := make([]detection, len(scenes))
	for i, f := range scenes {
		inline[i] = detect(f)
	}
	release()
	for i, f := range scenes {
		if got := detect(f); got != inline[i] {
			t.Errorf("scene %d (%dx%d): striped %+v, inline %+v", i, f.Width, f.Height, got, inline[i])
		}
	}
	if !inline[0].found || inline[len(scenes)-2].found || !inline[len(scenes)-1].found {
		t.Fatalf("found = %v / %v / %v, want a person, none and a person", inline[0].found, inline[len(scenes)-2].found, inline[len(scenes)-1].found)
	}

	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				for i := range scenes {
					k := (i + c + round) % len(scenes)
					if got := detect(scenes[k]); got != inline[k] {
						t.Errorf("caller %d, scene %d: %+v, want %+v", c, k, got, inline[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
