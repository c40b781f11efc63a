package vision

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHipCenter(t *testing.T) {
	var p Pose
	p.Keypoints[LeftHip] = Point{X: 10, Y: 20}
	p.Keypoints[RightHip] = Point{X: 30, Y: 40}
	hc := p.HipCenter()
	if hc.X != 20 || hc.Y != 30 {
		t.Errorf("HipCenter = %v, want (20,30)", hc)
	}
}

func TestNormalizeCentersHips(t *testing.T) {
	p := SynthesizePose(Squat, 0.3, DefaultSubject(), nil)
	n := p.Normalize()
	hc := n.HipCenter()
	if math.Abs(hc.X) > 1e-9 || math.Abs(hc.Y) > 1e-9 {
		t.Errorf("normalized hip center = %v, want origin", hc)
	}
}

func TestNormalizeInvariance(t *testing.T) {
	// Property: features are invariant to subject translation and scale.
	base := Subject{CenterX: 320, CenterY: 260, Scale: 80}
	ref := SynthesizePose(JumpingJack, 0.4, base, nil).Features()

	check := func(dx, dy int8, scaleSel uint8) bool {
		s := base
		s.CenterX += float64(dx)
		s.CenterY += float64(dy)
		s.Scale = 40 + float64(scaleSel%100) // 40-139 px torso
		got := SynthesizePose(JumpingJack, 0.4, s, nil).Features()
		for i := range ref {
			if math.Abs(got[i]-ref[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFeaturesLength(t *testing.T) {
	p := SynthesizePose(Idle, 0, DefaultSubject(), nil)
	if got := len(p.Features()); got != 2*NumKeypoints {
		t.Errorf("Features length = %d, want %d", got, 2*NumKeypoints)
	}
}

func TestBoundingBoxContainsKeypoints(t *testing.T) {
	for _, a := range AllActivities {
		p := SynthesizePose(a, 0.5, DefaultSubject(), nil)
		box := p.BoundingBox(0)
		for i, kp := range p.Keypoints {
			if !box.Contains(kp) {
				t.Errorf("%s: keypoint %s outside bounding box", a, KeypointNames[i])
			}
		}
		if box.Width() <= 0 || box.Height() <= 0 {
			t.Errorf("%s: degenerate box %+v", a, box)
		}
	}
}

func TestActivityStringParse(t *testing.T) {
	for _, a := range AllActivities {
		got, err := ParseActivity(a.String())
		if err != nil || got != a {
			t.Errorf("ParseActivity(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseActivity("moonwalk"); err == nil {
		t.Error("ParseActivity(moonwalk) succeeded")
	}
	if Activity(0).String() == "" {
		t.Error("invalid activity has empty String")
	}
}

func TestSynthesizedPosesWithinFrame(t *testing.T) {
	s := DefaultSubject()
	for _, a := range AllActivities {
		for _, phase := range []float64{0, 0.25, 0.5, 0.75, 0.99} {
			p := SynthesizePose(a, phase, s, nil)
			for i, kp := range p.Keypoints {
				if kp.X < 0 || kp.X > 640 || kp.Y < 0 || kp.Y > 480 {
					t.Errorf("%s phase %.2f: keypoint %s at %v outside 640x480", a, phase, KeypointNames[i], kp)
				}
			}
		}
	}
}

func TestActivitiesAreDistinct(t *testing.T) {
	// At mid-cycle, each activity's normalized pose should differ from the
	// others' — otherwise the classifier task is ill-posed.
	phase := 0.5
	feats := map[Activity][]float64{}
	for _, a := range []Activity{Idle, Squat, JumpingJack, OverheadPress, Lunge, Wave, Clap} {
		feats[a] = SynthesizePose(a, phase, DefaultSubject(), nil).Features()
	}
	for a, fa := range feats {
		for b, fb := range feats {
			if a >= b {
				continue
			}
			if d := sqDist(fa, fb); d < 1e-3 {
				t.Errorf("%s and %s have nearly identical mid-cycle poses (d=%g)", a, b, d)
			}
		}
	}
}

func TestSquatLowersHips(t *testing.T) {
	rest := SynthesizePose(Squat, 0, DefaultSubject(), nil)
	deep := SynthesizePose(Squat, 0.5, DefaultSubject(), nil)
	if deep.HipCenter().Y <= rest.HipCenter().Y+10 {
		t.Errorf("squat mid-cycle hips at %.1f, rest at %.1f; want significantly lower (larger y)",
			deep.HipCenter().Y, rest.HipCenter().Y)
	}
}

func TestJumpingJackRaisesArms(t *testing.T) {
	rest := SynthesizePose(JumpingJack, 0, DefaultSubject(), nil)
	up := SynthesizePose(JumpingJack, 0.5, DefaultSubject(), nil)
	if up.Keypoints[LeftWrist].Y >= rest.Keypoints[LeftWrist].Y {
		t.Error("jumping jack mid-cycle left wrist not raised")
	}
	if up.Keypoints[RightWrist].Y >= rest.Keypoints[RightWrist].Y {
		t.Error("jumping jack mid-cycle right wrist not raised")
	}
	// Wrists end above the nose at the top of the jack.
	if up.Keypoints[LeftWrist].Y >= up.Keypoints[Nose].Y {
		t.Error("jumping jack wrists not overhead at mid-cycle")
	}
}

func TestFallTiltsTorso(t *testing.T) {
	up := SynthesizePose(Fall, 0, DefaultSubject(), nil)
	down := SynthesizePose(Fall, 0.9, DefaultSubject(), nil)
	tilt := func(p Pose) float64 {
		hip := p.HipCenter()
		sh := Point{
			X: (p.Keypoints[LeftShoulder].X + p.Keypoints[RightShoulder].X) / 2,
			Y: (p.Keypoints[LeftShoulder].Y + p.Keypoints[RightShoulder].Y) / 2,
		}
		return math.Atan2(math.Abs(sh.X-hip.X), math.Abs(hip.Y-sh.Y))
	}
	if tilt(up) > math.Pi/8 {
		t.Errorf("fall start tilt %.2f rad, want near upright", tilt(up))
	}
	if tilt(down) < math.Pi/3 {
		t.Errorf("fall end tilt %.2f rad, want near horizontal", tilt(down))
	}
}

func TestSynthesizeSequencePhases(t *testing.T) {
	poses, phases := SynthesizeSequence(Squat, 30, 15, 0.5, DefaultSubject(), nil)
	if len(poses) != 30 || len(phases) != 30 {
		t.Fatalf("lengths %d, %d", len(poses), len(phases))
	}
	// 30 frames at 15fps = 2s at 0.5 reps/s = 1 full rep of phase.
	if got := phases[29] - phases[0]; math.Abs(got-29.0/15.0*0.5) > 1e-9 {
		t.Errorf("phase progression = %v", got)
	}
}

func TestNoiseChangesPose(t *testing.T) {
	s := DefaultSubject()
	rng := rand.New(rand.NewSource(7))
	a := SynthesizePose(Squat, 0.3, s, rng)
	b := SynthesizePose(Squat, 0.3, s, rng)
	same := true
	for i := range a.Keypoints {
		if a.Keypoints[i] != b.Keypoints[i] {
			same = false
		}
	}
	if same {
		t.Error("noise did not perturb keypoints")
	}
	// Without rng, output is deterministic.
	c := SynthesizePose(Squat, 0.3, s, nil)
	d := SynthesizePose(Squat, 0.3, s, nil)
	for i := range c.Keypoints {
		if c.Keypoints[i] != d.Keypoints[i] {
			t.Fatal("deterministic synthesis differs between calls")
		}
	}
}

func TestBoxHelpers(t *testing.T) {
	b := Box{MinX: 10, MinY: 20, MaxX: 30, MaxY: 60}
	if b.Width() != 20 || b.Height() != 40 {
		t.Errorf("Width/Height = %v/%v", b.Width(), b.Height())
	}
	if c := b.Center(); c.X != 20 || c.Y != 40 {
		t.Errorf("Center = %v", c)
	}
	if !b.Contains(Point{X: 15, Y: 25}) || b.Contains(Point{X: 5, Y: 25}) {
		t.Error("Contains wrong")
	}
}
