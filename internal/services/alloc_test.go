//go:build !race

package services

import (
	"context"
	"math/rand"
	"testing"

	"videopipe/internal/netsim"
	"videopipe/internal/script"
	"videopipe/internal/vision"
)

// TestPoseValueAllocs pins the pose tree a detector hands a module and the
// copy each local edge makes of it (`make alloc`). A flat object is one
// allocation and the 17 keypoints are one record run of two, so building the
// pose is its 6 objects, arrays and run blocks, and its 39 numbers go into
// their fields unboxed (keypoint names are boxed once); a clone is the 6
// containers too. Boxed numbers cost 45 to build; one allocation per
// keypoint object costs 60 and 21; map-backed objects cost 96 and 59.
func TestPoseValueAllocs(t *testing.T) {
	p := vision.SynthesizePose(vision.Squat, 0.3, vision.DefaultSubject(), nil)
	v := script.Value(poseValue(p))
	build := testing.AllocsPerRun(50, func() { poseValue(p) })
	if build > 6 {
		t.Errorf("poseValue: %.0f allocs, want <= 6 (its containers)", build)
	}
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

// TestPoseFromValueAllocs: the services read a pose's 39 numbers back with
// Object.Num, unboxed, so poseFromValue allocates nothing and a warm
// activity_classifier call over a 15-pose window — 510 coordinate reads —
// allocates only its result's boxed label and confidence (the result map is
// recycled). Read through Get, each coordinate would be a box.
func TestPoseFromValueAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	clf := vision.NewActivityClassifier(3)
	for _, a := range []vision.Activity{vision.Squat, vision.JumpingJack} {
		window, _ := vision.SynthesizeSequence(a, vision.WindowSize, 15, 0.5, vision.DefaultSubject(), rng)
		feats, err := vision.WindowFeatures(window)
		if err != nil {
			t.Fatal(err)
		}
		if err := clf.Train([]vision.LabeledWindow{{Label: a, Features: feats}}); err != nil {
			t.Fatal(err)
		}
	}
	window, _ := vision.SynthesizeSequence(vision.Squat, vision.WindowSize, 15, 0.55, vision.DefaultSubject(), rng)
	poses := make([]script.Value, len(window))
	for i, p := range window {
		poses[i] = poseValue(p)
	}
	obj := poses[0].(*script.Object)
	if got, err := poseFromValue(obj); err != nil || got != window[0] {
		t.Fatalf("poseFromValue = %+v, %v; want %+v", got, err, window[0])
	}
	if allocs := testing.AllocsPerRun(50, func() { poseFromValue(obj) }); allocs != 0 {
		t.Errorf("poseFromValue: %.1f allocs, want 0", allocs)
	}

	args := script.NewObjectSize(1)
	args.Set("poses", &script.Array{Elems: poses})
	handle := handleActivity(clf)
	call := func() {
		resp, err := handle(context.Background(), Request{Args: args})
		if err != nil {
			t.Fatal(err)
		}
		RecycleResult(resp.Result)
	}
	call()
	if allocs := testing.AllocsPerRun(50, call); allocs > 2 {
		t.Errorf("warm activity_classifier call over %d poses: %.1f allocs, want <= 2", len(poses), allocs)
	}
}

// TestClientCallAllocs pins a warm remote call of a pose message, both
// ends in one process: the client encodes the arguments, the server decodes
// them through its warm decoder, the handler answers and the client decodes
// the result through its own. A fresh decoder per body on either side
// costs the pose's keypoints one object each, its numbers a box each and
// every key string again: 218 allocations a round trip, 55 warm.
func TestClientCallAllocs(t *testing.T) {
	nw := netsim.NewNetwork(netsim.LinkProfile{})
	defer nw.Close()
	pool, err := NewPool(Spec{Name: "echo_pose", Handler: func(_ context.Context, req Request) (Response, error) {
		score, _ := req.Args.Get("pose").(*script.Object).Num(keyScore)
		return Response{Result: result("score", score, "label", "squat", "pose", req.Args.Get("pose"))}, nil
	}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(nw.Host("desktop"), 0, map[string]*Pool{"echo_pose": pool}, nil, openGate)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewClient(nw.Host("phone"), srv.Addr().String(), nil)
	defer client.Close()

	args := script.NewObjectSize(2)
	args.Set("pose", poseValue(vision.SynthesizePose(vision.Squat, 0.3, vision.DefaultSubject(), nil)))
	args.Set("seq", 7.0)
	ctx := context.Background()
	call := func() {
		resp, err := client.Call(ctx, "echo_pose", args, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result["label"] != "squat" || resp.Result["pose"].(*script.Object).Len() != args.Get("pose").(*script.Object).Len() {
			t.Fatalf("result %v", resp.Result)
		}
		RecycleResult(resp.Result)
	}
	for i := 0; i < 5; i++ {
		call()
	}
	allocs := testing.AllocsPerRun(50, call)
	t.Logf("warm remote call of a pose message: %.0f allocs", allocs)
	if allocs > 55 {
		t.Errorf("warm remote call of a pose message: %.0f allocs, want <= 55", allocs)
	}
}
