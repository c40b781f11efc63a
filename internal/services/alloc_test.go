//go:build !race

package services

import (
	"testing"

	"videopipe/internal/script"
	"videopipe/internal/vision"
)

// TestPoseValueAllocs pins the pose tree a detector hands a module and the
// copy each local edge makes of it (`make alloc`). A flat object is one
// allocation and the 17 keypoints are one record run of two, so building the
// pose is its 6 objects, arrays and run blocks plus one box per number
// (keypoint names are boxed once), and a clone — which shares the immutable
// numbers and strings — is the 6 containers alone. One allocation per
// keypoint object costs 60 and 21; map-backed objects cost 96 and 59.
func TestPoseValueAllocs(t *testing.T) {
	p := vision.SynthesizePose(vision.Squat, 0.3, vision.DefaultSubject(), nil)
	build := testing.AllocsPerRun(50, func() { poseValue(p) })
	if build > 45 {
		t.Errorf("poseValue: %.0f allocs, want <= 45", build)
	}
	v := script.Value(poseValue(p))
	clone := testing.AllocsPerRun(50, func() {
		if _, err := script.Clone(v); err != nil {
			t.Fatal(err)
		}
	})
	if clone > 6 {
		t.Errorf("Clone of a detector pose: %.0f allocs, want <= 6", clone)
	}
	t.Logf("poseValue %.0f allocs, its clone %.0f", build, clone)
}
