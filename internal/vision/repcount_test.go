package vision

import (
	"math/rand"
	"testing"

	"videopipe/internal/frame"
)

func TestRepCounterCountsCleanSquats(t *testing.T) {
	// 6 reps at 0.5 reps/s, 15 fps => 180 frames.
	sub := DefaultSubject()
	sub.Noise = 1
	poses, _ := SynthesizeSequence(Squat, 181, 15, 0.5, sub, rand.New(rand.NewSource(2)))
	got := CountReps(poses, DefaultDebounce, 0)
	if got < 5 || got > 7 {
		t.Errorf("counted %d reps, want ~6", got)
	}
}

func TestRepCounterAllExercises(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, ex := range Exercises {
		sub := DefaultSubject()
		sub.Noise = 1.5
		truth := 5
		fps, rate := 15.0, 0.5
		frames := int(float64(truth)/rate*fps) + 1
		poses, _ := SynthesizeSequence(ex, frames, fps, rate, sub, rng)
		got := CountReps(poses, DefaultDebounce, 0)
		if RepAccuracy(got, truth) < 0.6 {
			t.Errorf("%s: counted %d reps, truth %d", ex, got, truth)
		}
	}
}

func TestRepCounterIdleCountsZero(t *testing.T) {
	sub := DefaultSubject()
	sub.Noise = 1
	poses, _ := SynthesizeSequence(Idle, 150, 15, 0.5, sub, rand.New(rand.NewSource(3)))
	if got := CountReps(poses, DefaultDebounce, 0); got > 1 {
		t.Errorf("idle sequence counted %d reps, want ~0", got)
	}
}

func TestRepCounterDebounceSuppressesFlicker(t *testing.T) {
	// Hand-build a counter already fitted with two centroids, then feed
	// label flicker shorter than the debounce: no transition.
	rc := NewRepCounter(4, 0)
	rc.centroids[0] = []float64{0, 0}
	rc.centroids[1] = []float64{10, 10}
	rc.fitted = true
	rc.initialState = 0
	rc.state = 0

	seq := []int{0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0} // never 4-in-a-row of 1
	for _, label := range seq {
		rc.observeLabeled(label)
	}
	if rc.Reps() != 0 {
		t.Errorf("flicker produced %d reps, want 0", rc.Reps())
	}
	if rc.state != 0 {
		t.Errorf("flicker changed state to %d", rc.state)
	}

	// A genuine excursion of >= 4 frames out and >= 4 back counts one rep.
	for _, label := range []int{1, 1, 1, 1, 1, 0, 0, 0, 0} {
		rc.observeLabeled(label)
	}
	if rc.Reps() != 1 {
		t.Errorf("excursion produced %d reps, want 1", rc.Reps())
	}
}

func TestRepCounterReset(t *testing.T) {
	rc := NewRepCounter(0, 10)
	sub := DefaultSubject()
	poses, _ := SynthesizeSequence(Squat, 60, 15, 0.5, sub, nil)
	for _, p := range poses {
		rc.Observe(p)
	}
	if !rc.Calibrated() {
		t.Fatal("not calibrated after 60 frames with calibration=10")
	}
	rc.Reset()
	if rc.Reps() != 0 || rc.framesSeen != 0 || rc.Calibrated() {
		t.Errorf("Reset left state: %s", rc)
	}
}

func TestRepAccuracy(t *testing.T) {
	cases := []struct {
		pred, truth int
		want        float64
	}{
		{5, 5, 1},
		{4, 5, 0.8},
		{6, 5, 0.8},
		{0, 5, 0},
		{15, 5, 0},
		{0, 0, 1},
		{2, 0, 0},
	}
	for _, c := range cases {
		if got := RepAccuracy(c.pred, c.truth); got != c.want {
			t.Errorf("RepAccuracy(%d, %d) = %v, want %v", c.pred, c.truth, got, c.want)
		}
	}
}

// TestRepCounterAccuracy reproduces the paper's §4.1.3 claim (experiment
// E5): rep counting accuracy on a withheld test set around 83%.
func TestRepCounterAccuracy(t *testing.T) {
	trials, mean, err := EvaluateRepCounting(24, 42)
	if err != nil {
		t.Fatalf("EvaluateRepCounting: %v", err)
	}
	if len(trials) != 24 {
		t.Fatalf("got %d trials", len(trials))
	}
	t.Logf("rep counting mean accuracy = %.1f%% over %d trials (paper reports 83.3%%)", mean*100, len(trials))
	if mean < 0.75 {
		t.Errorf("mean accuracy = %.3f, want >= 0.75 (paper: 0.833)", mean)
	}
}

func TestEvaluateRepCountingValidation(t *testing.T) {
	if _, _, err := EvaluateRepCounting(0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestRepCounterEndToEndThroughPixels(t *testing.T) {
	// Full loop: synthesize -> render -> detect -> count. This is the
	// pipeline's actual data path.
	sub := DefaultSubject()
	sub.Noise = 0.5
	truth := 4
	fps, rate := 15.0, 0.5
	n := int(float64(truth)/rate*fps) + 1
	poses, _ := SynthesizeSequence(Squat, n, fps, rate, sub, rand.New(rand.NewSource(9)))

	rc := NewRepCounter(0, 0)
	for _, p := range poses {
		f := frame.MustNew(640, 480)
		RenderScene(f, p)
		det, ok := DetectPose(f)
		if !ok {
			t.Fatal("pose lost during rendering")
		}
		rc.Observe(det)
	}
	if RepAccuracy(rc.Reps(), truth) < 0.7 {
		t.Errorf("pixel-path counted %d reps, truth %d", rc.Reps(), truth)
	}
}

func TestFallDetector(t *testing.T) {
	sub := DefaultSubject()
	sub.Noise = 1

	// A fall sequence triggers detection.
	d := NewFallDetector()
	poses, _ := SynthesizeSequence(Fall, 60, 15, 0.4, sub, rand.New(rand.NewSource(4)))
	fired := false
	for _, p := range poses {
		if d.Observe(p) {
			fired = true
		}
	}
	if !fired || !d.Fallen() {
		t.Error("fall sequence not detected")
	}

	// Squats (which also lower the hips) must not trigger.
	d2 := NewFallDetector()
	squats, _ := SynthesizeSequence(Squat, 120, 15, 0.5, sub, rand.New(rand.NewSource(5)))
	for _, p := range squats {
		if d2.Observe(p) {
			t.Fatal("squat sequence triggered fall detection")
		}
	}
}

func TestImageClassifier(t *testing.T) {
	c := NewImageClassifier()
	if _, _, err := c.Classify(frame.MustNew(8, 8)); err == nil {
		t.Error("classify with no classes succeeded")
	}
	if err := c.Train("", frame.MustNew(8, 8)); err == nil {
		t.Error("empty label accepted")
	}

	// Two visually distinct scene classes.
	mkBright := func(seed int64) *frame.Frame {
		rng := rand.New(rand.NewSource(seed))
		f := frame.MustNew(64, 64)
		for i := 0; i < len(f.Pix); i += 4 {
			f.Pix[i] = byte(200 + rng.Intn(55))
			f.Pix[i+1] = byte(180 + rng.Intn(40))
			f.Pix[i+2] = byte(rng.Intn(40))
			f.Pix[i+3] = 255
		}
		return f
	}
	mkDark := func(seed int64) *frame.Frame {
		rng := rand.New(rand.NewSource(seed))
		f := frame.MustNew(64, 64)
		for i := 0; i < len(f.Pix); i += 4 {
			f.Pix[i] = byte(rng.Intn(30))
			f.Pix[i+1] = byte(rng.Intn(30))
			f.Pix[i+2] = byte(100 + rng.Intn(80))
			f.Pix[i+3] = 255
		}
		return f
	}
	for i := int64(0); i < 5; i++ {
		if err := c.Train("daylight", mkBright(i)); err != nil {
			t.Fatalf("Train: %v", err)
		}
		if err := c.Train("night", mkDark(i)); err != nil {
			t.Fatalf("Train: %v", err)
		}
	}
	if got := c.Classes(); len(got) != 2 || got[0] != "daylight" || got[1] != "night" {
		t.Errorf("Classes = %v", got)
	}
	label, conf, err := c.Classify(mkBright(99))
	if err != nil || label != "daylight" {
		t.Errorf("Classify(bright) = %q, %v, %v", label, conf, err)
	}
	label, _, err = c.Classify(mkDark(98))
	if err != nil || label != "night" {
		t.Errorf("Classify(dark) = %q, %v", label, err)
	}
}
