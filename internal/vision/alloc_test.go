//go:build !race

package vision

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"videopipe/internal/frame"
)

// The per-frame pins of the fitness chain's two pose consumers (`make
// alloc`): the activity classifier and the rep counter build their feature
// vectors in arrays on the stack, so a warm call allocates nothing. They
// hold only without race instrumentation, hence the build tag.

// TestClassifyAllocs: a warm Classify of a 15-pose window allocates nothing
// (the 510-value window vector and its 15 per-pose vectors cost 16
// allocations when each was a slice of its own) and answers what the
// heap-built vector does.
func TestClassifyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewActivityClassifier(3)
	for _, a := range []Activity{Squat, JumpingJack} {
		window, _ := SynthesizeSequence(a, WindowSize, 15, 0.5, DefaultSubject(), rng)
		feats, err := WindowFeatures(window)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Train([]LabeledWindow{{Label: a, Features: feats}}); err != nil {
			t.Fatal(err)
		}
	}
	window, _ := SynthesizeSequence(Squat, WindowSize, 15, 0.55, DefaultSubject(), rng)
	feats, err := WindowFeatures(window)
	if err != nil {
		t.Fatal(err)
	}
	wantLabel, wantConf, _ := c.ClassifyFeatures(feats)
	label, conf, err := c.Classify(window)
	if err != nil || label != wantLabel || conf != wantConf {
		t.Fatalf("Classify = %v %v %v, ClassifyFeatures(WindowFeatures) = %v %v", label, conf, err, wantLabel, wantConf)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := c.Classify(window); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Classify: %.1f allocs, want 0", allocs)
	}
}

// TestRepCounterObserveAllocs: once the counter is fitted, Observe labels
// each frame from a stack vector and allocates nothing.
func TestRepCounterObserveAllocs(t *testing.T) {
	poses, _ := SynthesizeSequence(Squat, 120, 15, 0.5, DefaultSubject(), nil)
	rc := NewRepCounter(0, 0)
	for _, p := range poses[:60] {
		rc.Observe(p)
	}
	if !rc.Calibrated() {
		t.Fatal("counter not fitted after 60 frames")
	}
	i := 60
	allocs := testing.AllocsPerRun(50, func() {
		rc.Observe(poses[i])
		i++
	})
	if allocs != 0 {
		t.Errorf("fitted Observe: %.1f allocs, want 0", allocs)
	}
	if rc.Reps() == 0 {
		t.Error("no reps counted over 111 frames of squats")
	}
}

// TestDetectPoseAllocs: a warm detection takes its label buffer from
// frame.Pool and its per-stripe partials and bound row functions from a
// reused scratch, and the stripe workers are the process's own, so it
// allocates nothing (~13.4 objects before: stripe goroutines and closures,
// their WaitGroups, the escaped accumulators and the label pool's slice
// header).
func TestDetectPoseAllocs(t *testing.T) {
	f := frame.MustNew(480, 360)
	RenderScene(f, SynthesizePose(Squat, 0.3, DefaultSubject(), nil))
	if _, ok := DetectPose(f); !ok {
		t.Fatal("DetectPose found no person")
	}
	if allocs := testing.AllocsPerRun(50, func() { DetectPose(f) }); allocs != 0 {
		t.Errorf("warm DetectPose: %.1f allocs, want 0", allocs)
	}
}

// TestDetectObjectsAllocs: a warm object detection borrows its class plane
// and its union-find parent plane from frame.Pool and its row function from
// a reused scratch, so what it allocates is its result — the component
// table and the detections, 7 allocations for two objects — and no plane:
// 480×360 planes cost 857 KiB and 10 allocations a call when each was made
// afresh. The bytes are the quietest of several batches, as MemStats counts
// the stripe workers too.
func TestDetectObjectsAllocs(t *testing.T) {
	f := frame.MustNew(480, 360)
	f.Fill(backgroundColor)
	DrawObject(f, "chair", 20, 120, 80, 200)
	DrawObject(f, "tv", 150, 30, 280, 110)
	if dets := DetectObjects(f); len(dets) != 2 {
		t.Fatalf("detected %d objects, want 2", len(dets))
	}
	const batches, runs = 5, 20
	if allocs := testing.AllocsPerRun(runs, func() { DetectObjects(f) }); allocs > 7 {
		t.Errorf("warm DetectObjects: %.1f allocs, want <= 7", allocs)
	}
	perOp := math.Inf(1)
	for range batches {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			DetectObjects(f)
		}
		runtime.ReadMemStats(&after)
		perOp = min(perOp, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if perOp > 1024 {
		t.Errorf("warm DetectObjects: %.0f B, want <= 1 KiB (a 480x360 class plane is 169 KiB)", perOp)
	}
}
