package vision

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"videopipe/internal/frame"
)

func TestNormalizeIdempotentOnFeatures(t *testing.T) {
	// Property: normalizing an already-normalized pose leaves its feature
	// vector unchanged (the transform is a projection).
	check := func(seed int64, actSel uint8, phase16 uint16) bool {
		acts := AllActivities
		act := acts[int(actSel)%len(acts)]
		phase := float64(phase16) / 65536
		rng := rand.New(rand.NewSource(seed))
		p := SynthesizePose(act, phase, DefaultSubject(), rng)
		once := p.Normalize()
		twice := once.Normalize()
		f1 := once.Features()
		f2 := twice.Features()
		for i := range f1 {
			if math.Abs(f1[i]-f2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRepAccuracyBounds(t *testing.T) {
	// Property: accuracy is always in [0, 1], symmetric in over/under
	// counting by the same absolute error.
	check := func(pred, truth uint8) bool {
		a := RepAccuracy(int(pred), int(truth))
		if a < 0 || a > 1 {
			return false
		}
		if truth > 0 {
			over := RepAccuracy(int(truth)+3, int(truth))
			under := RepAccuracy(int(truth)-3, int(truth))
			if int(truth) >= 3 && math.Abs(over-under) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestDetectObjectsFindsRandomRect(t *testing.T) {
	// Property: a single drawn object is detected with a box covering it.
	labels := ObjectClassNames()
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := frame.MustNew(160, 120)
		f.Fill(backgroundColor)
		label := labels[rng.Intn(len(labels))]
		x0 := 5 + rng.Intn(100)
		y0 := 5 + rng.Intn(70)
		w := 8 + rng.Intn(40)
		h := 8 + rng.Intn(30)
		DrawObject(f, label, x0, y0, x0+w, y0+h)

		dets := DetectObjects(f)
		if len(dets) != 1 || dets[0].Label != label {
			return false
		}
		b := dets[0].Box
		return b.MinX <= float64(x0) && b.MinY <= float64(y0) &&
			b.MaxX >= float64(minI(x0+w, 159)) && b.MaxY >= float64(minI(y0+h, 119))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestDetectPoseStableUnderTranslation(t *testing.T) {
	// Property: moving the subject moves the detected keypoints by the
	// same offset (within pixel rounding).
	base := Subject{CenterX: 200, CenterY: 180, Scale: 50}
	f0 := frame.MustNew(400, 300)
	RenderScene(f0, SynthesizePose(Squat, 0.3, base, nil))
	p0, ok := DetectPose(f0)
	if !ok {
		t.Fatal("base pose undetected")
	}

	check := func(dx8, dy8 int8) bool {
		dx := float64(dx8 % 40)
		dy := float64(dy8 % 30)
		s := base
		s.CenterX += dx
		s.CenterY += dy
		f := frame.MustNew(400, 300)
		RenderScene(f, SynthesizePose(Squat, 0.3, s, nil))
		p, ok := DetectPose(f)
		if !ok {
			return false
		}
		for i := range p.Keypoints {
			gotDx := p.Keypoints[i].X - p0.Keypoints[i].X
			gotDy := p.Keypoints[i].Y - p0.Keypoints[i].Y
			if math.Abs(gotDx-dx) > 1.5 || math.Abs(gotDy-dy) > 1.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRepCounterStateRoundTripProperty(t *testing.T) {
	// Property: marshal/restore at any point mid-stream produces a counter
	// that finishes with the same count as one that ran uninterrupted.
	check := func(seed int64, cutSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sub := DefaultSubject()
		sub.Noise = 2
		poses, _ := SynthesizeSequence(Squat, 120, 15, 0.5, sub, rng)
		cut := 1 + int(cutSel)%(len(poses)-2)

		straight := NewRepCounter(0, 0)
		for _, p := range poses {
			straight.Observe(p)
		}

		first := NewRepCounter(0, 0)
		for _, p := range poses[:cut] {
			first.Observe(p)
		}
		second, err := RestoreRepCounter(first.AppendState(nil))
		if err != nil {
			return false
		}
		for _, p := range poses[cut:] {
			second.Observe(p)
		}
		return second.Reps() == straight.Reps() && second.FramesSeen() == straight.FramesSeen()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFallDetectorStateRoundTrip(t *testing.T) {
	poses, _ := SynthesizeSequence(Fall, 60, 15, 0.4, DefaultSubject(), rand.New(rand.NewSource(8)))
	cut := 25

	straight := NewFallDetector()
	for _, p := range poses {
		straight.Observe(p)
	}

	first := NewFallDetector()
	for _, p := range poses[:cut] {
		first.Observe(p)
	}
	second, err := RestoreFallDetector(first.AppendState(nil))
	if err != nil {
		t.Fatalf("RestoreFallDetector: %v", err)
	}
	for _, p := range poses[cut:] {
		second.Observe(p)
	}
	if second.Fallen() != straight.Fallen() {
		t.Errorf("state round trip diverged: %v vs %v", second.Fallen(), straight.Fallen())
	}
	if !straight.Fallen() {
		t.Error("fall sequence not detected by either")
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	if _, err := RestoreRepCounter([]byte("{not json")); err == nil {
		t.Error("corrupt rep state accepted")
	}
	if _, err := RestoreFallDetector([]byte("{not json")); err == nil {
		t.Error("corrupt fall state accepted")
	}
	// The JSON form of earlier versions is just another unknown version.
	if _, err := RestoreRepCounter([]byte(`{"fitted": true}`)); err == nil {
		t.Error("inconsistent rep state accepted")
	}
	// Every strict prefix of a real blob, and a real blob under another
	// version byte or with a byte appended, is an error — mid-calibration
	// (frames buffered) and fitted (centroids present) alike.
	poses, _ := SynthesizeSequence(Squat, 60, 15, 0.5, DefaultSubject(), rand.New(rand.NewSource(3)))
	rc := NewRepCounter(0, 0)
	fd := NewFallDetector()
	for i, p := range poses {
		rc.Observe(p)
		fd.Observe(p)
		if i != 5 && i != len(poses)-1 {
			continue
		}
		for name, blob := range map[string][]byte{"rep": rc.AppendState(nil), "fall": fd.AppendState(nil)} {
			restore := func(b []byte) error {
				if name == "rep" {
					_, err := RestoreRepCounter(b)
					return err
				}
				_, err := RestoreFallDetector(b)
				return err
			}
			if err := restore(blob); err != nil {
				t.Fatalf("%s blob after %d frames: %v", name, i+1, err)
			}
			for cut := 1; cut < len(blob); cut++ {
				if restore(blob[:cut]) == nil {
					t.Fatalf("%s blob truncated to %d of %d bytes accepted", name, cut, len(blob))
				}
			}
			if restore(append(append([]byte(nil), blob...), 0)) == nil {
				t.Errorf("%s blob with a trailing byte accepted", name)
			}
			other := append([]byte(nil), blob...)
			other[0]++
			if restore(other) == nil {
				t.Errorf("%s blob with version byte %d accepted", name, other[0])
			}
		}
	}
	// Empty blobs mean fresh state.
	if rc, err := RestoreRepCounter(nil); err != nil || rc.FramesSeen() != 0 {
		t.Errorf("empty rep blob: %v", err)
	}
	if fd, err := RestoreFallDetector(nil); err != nil || fd.Fallen() {
		t.Errorf("empty fall blob: %v", err)
	}
}

func TestImageFeaturesStable(t *testing.T) {
	// Property: features are deterministic and bounded in [0, 1].
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := frame.MustNew(32, 24)
		for i := range f.Pix {
			f.Pix[i] = byte(rng.Intn(256))
		}
		a := ImageFeatures(f)
		b := ImageFeatures(f)
		for i := range a {
			if a[i] != b[i] || a[i] < 0 || a[i] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
