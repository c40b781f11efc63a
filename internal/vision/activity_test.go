package vision

import (
	"math/rand"
	"testing"
)

func TestWindowFeaturesValidation(t *testing.T) {
	if _, err := WindowFeatures(make([]Pose, WindowSize-1)); err == nil {
		t.Error("short window accepted")
	}
	feats, err := WindowFeatures(make([]Pose, WindowSize))
	if err != nil {
		t.Fatalf("WindowFeatures: %v", err)
	}
	if len(feats) != WindowSize*2*NumKeypoints {
		t.Errorf("feature length = %d, want %d", len(feats), WindowSize*2*NumKeypoints)
	}
}

func TestClassifierValidation(t *testing.T) {
	c := NewActivityClassifier(0)
	if _, _, err := c.ClassifyFeatures(make([]float64, WindowSize*2*NumKeypoints)); err == nil {
		t.Error("classify with no training data succeeded")
	}
	if err := c.Train([]LabeledWindow{{Label: Squat, Features: []float64{1}}}); err == nil {
		t.Error("training with bad feature length succeeded")
	}
	if err := c.Train([]LabeledWindow{{Features: make([]float64, WindowSize*2*NumKeypoints)}}); err == nil {
		t.Error("training with missing label succeeded")
	}
	if err := c.Train([]LabeledWindow{{Label: Squat, Features: make([]float64, WindowSize*2*NumKeypoints)}}); err != nil {
		t.Fatalf("valid Train: %v", err)
	}
	if len(c.samples) != 1 {
		t.Errorf("len(samples) = %d, want 1", len(c.samples))
	}
	if _, _, err := c.ClassifyFeatures([]float64{1, 2}); err == nil {
		t.Error("classify with wrong feature length succeeded")
	}
}

func TestClassifierSeparatesTwoActivities(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewActivityClassifier(3)
	sub := DefaultSubject()
	for i := 0; i < 6; i++ {
		sub.Phase0 = float64(i) / 6
		squats, _ := SynthesizeSequence(Squat, WindowSize, 15, 0.5, sub, rng)
		jacks, _ := SynthesizeSequence(JumpingJack, WindowSize, 15, 0.5, sub, rng)
		squatFeats, err := WindowFeatures(squats)
		if err != nil {
			t.Fatal(err)
		}
		jackFeats, err := WindowFeatures(jacks)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Train([]LabeledWindow{{Label: Squat, Features: squatFeats}, {Label: JumpingJack, Features: jackFeats}}); err != nil {
			t.Fatalf("Train: %v", err)
		}
	}
	sub.Phase0 = 0.13
	test, _ := SynthesizeSequence(Squat, WindowSize, 15, 0.55, sub, rng)
	label, conf, err := c.Classify(test)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if label != Squat {
		t.Errorf("Classify = %s, want squat", label)
	}
	if conf < 0.5 {
		t.Errorf("confidence = %v", conf)
	}
}

// TestActivityAccuracyAbove90 reproduces the paper's §4.1.2 claim: test
// accuracy on a withheld set is above 90% (experiment E4 in DESIGN.md).
func TestActivityAccuracyAbove90(t *testing.T) {
	ds, err := GenerateDataset(DefaultDatasetConfig())
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	c := NewActivityClassifier(3)
	if err := c.Train(ds.Train); err != nil {
		t.Fatalf("Train: %v", err)
	}
	acc, err := c.EvaluateAccuracy(ds.Test)
	if err != nil {
		t.Fatalf("EvaluateAccuracy: %v", err)
	}
	t.Logf("activity recognition accuracy = %.1f%% (train %d, test %d; paper reports >90%%)",
		acc*100, len(ds.Train), len(ds.Test))
	if acc <= 0.90 {
		t.Errorf("accuracy = %.3f, want > 0.90 (paper §4.1.2)", acc)
	}
}

func TestEvaluateAccuracyEmptyTest(t *testing.T) {
	c := NewActivityClassifier(1)
	if _, err := c.EvaluateAccuracy(nil); err == nil {
		t.Error("empty test set accepted")
	}
}

func TestSlidingWindows(t *testing.T) {
	poses := make([]Pose, 45)
	ws := SlidingWindows(poses, 15)
	if len(ws) != 3 {
		t.Errorf("45 frames / stride 15 = %d windows, want 3", len(ws))
	}
	ws = SlidingWindows(poses, 5)
	if len(ws) != 7 {
		t.Errorf("45 frames / stride 5 = %d windows, want 7", len(ws))
	}
	if got := SlidingWindows(make([]Pose, WindowSize-1), 1); got != nil {
		t.Errorf("short sequence produced windows: %d", len(got))
	}
	// Non-positive stride treated as 1.
	if got := SlidingWindows(make([]Pose, WindowSize+1), 0); len(got) != 2 {
		t.Errorf("stride 0: %d windows, want 2", len(got))
	}
}

func TestGenerateDatasetValidation(t *testing.T) {
	cfg := DefaultDatasetConfig()
	cfg.Activities = nil
	if _, err := GenerateDataset(cfg); err == nil {
		t.Error("empty activity list accepted")
	}
	cfg = DefaultDatasetConfig()
	cfg.FramesPerSequence = 5
	if _, err := GenerateDataset(cfg); err == nil {
		t.Error("too-short sequences accepted")
	}
}

func TestGenerateDatasetDeterministic(t *testing.T) {
	cfg := DefaultDatasetConfig()
	cfg.SequencesPerActivity = 4
	a, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	b, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	if len(a.Train) != len(b.Train) || len(a.Test) != len(b.Test) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", len(a.Train), len(a.Test), len(b.Train), len(b.Test))
	}
	for i := range a.Train {
		if a.Train[i].Label != b.Train[i].Label {
			t.Fatal("labels differ between identical-seed generations")
		}
		for j := range a.Train[i].Features {
			if a.Train[i].Features[j] != b.Train[i].Features[j] {
				t.Fatal("features differ between identical-seed generations")
			}
		}
	}
}

func TestActionable(t *testing.T) {
	if Actionable(0.5) {
		t.Error("0.5 actionable")
	}
	if !Actionable(0.8) {
		t.Error("0.8 not actionable")
	}
}
