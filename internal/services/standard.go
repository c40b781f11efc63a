package services

import (
	"context"
	"encoding/base64"
	"fmt"
	"image/color"
	"sync"
	"time"
	"unique"

	"videopipe/internal/script"
	"videopipe/internal/vision"
)

// StandardOptions configures the standard service set. Costs are the
// simulated inference latencies on the reference desktop, calibrated so the
// pipeline reproduces the paper's Fig. 6 stage latencies and Table 2 frame
// rates: pose detection dominates at ~85 ms (the paper's pipeline saturates
// near 11 FPS), the pose-sequence models are cheap, and display composition
// is a few milliseconds.
type StandardOptions struct {
	// Seed drives activity-classifier training-data generation.
	Seed int64
	// DatasetConfig controls classifier training; zero value selects the
	// default corpus.
	DatasetConfig vision.DatasetConfig

	// PoseCost is the pose detector's per-frame inference latency.
	PoseCost time.Duration
	// PoseWorkers is the pose container's internal concurrency.
	PoseWorkers int
	// PoseSerialFraction is the non-parallel share of pose inference.
	PoseSerialFraction float64

	// ActivityCost, RepCost, DisplayCost, ObjectCost, ClassifyCost,
	// FaceCost and FallCost are the remaining services' latencies.
	ActivityCost time.Duration
	RepCost      time.Duration
	DisplayCost  time.Duration
	ObjectCost   time.Duration
	ClassifyCost time.Duration
	FaceCost     time.Duration
	FallCost     time.Duration
}

// DefaultOptions returns the calibration used by the paper-reproduction
// experiments.
func DefaultOptions() StandardOptions {
	return StandardOptions{
		Seed:               1,
		PoseCost:           85 * time.Millisecond,
		PoseWorkers:        2,
		PoseSerialFraction: 0.5,
		ActivityCost:       6 * time.Millisecond,
		RepCost:            3 * time.Millisecond,
		DisplayCost:        4 * time.Millisecond,
		ObjectCost:         60 * time.Millisecond,
		ClassifyCost:       25 * time.Millisecond,
		FaceCost:           30 * time.Millisecond,
		FallCost:           3 * time.Millisecond,
	}
}

// Standard service names.
const (
	PoseDetector       = "pose_detector"
	ActivityClassifier = "activity_classifier"
	RepCounter         = "rep_counter"
	Display            = "display"
	ObjectDetector     = "object_detector"
	ImageClassifier    = "image_classifier"
	FaceDetector       = "face_detector"
	FallDetector       = "fall_detector"
)

// NewStandardRegistry builds the paper's predefined service list (§3.1),
// training the activity classifier on a synthetic labelled corpus.
func NewStandardRegistry(opts StandardOptions) (*Registry, error) {
	if opts.PoseCost == 0 {
		opts = DefaultOptions()
	}

	dsCfg := opts.DatasetConfig
	if len(dsCfg.Activities) == 0 {
		dsCfg = vision.DefaultDatasetConfig()
		dsCfg.Seed = opts.Seed
	}
	ds, err := vision.GenerateDataset(dsCfg)
	if err != nil {
		return nil, fmt.Errorf("services: training corpus: %w", err)
	}
	clf := vision.NewActivityClassifier(3)
	if err := clf.Train(ds.Train); err != nil {
		return nil, fmt.Errorf("services: training classifier: %w", err)
	}

	imgClf := vision.NewImageClassifier()

	r := NewRegistry()
	specs := []Spec{
		// MaxInstances declares each service's scaling envelope, the
		// tuner's ceiling; the millisecond-class services without one are
		// never a bottleneck and stay untunable.
		{
			Name: PoseDetector, Cost: opts.PoseCost, Workers: opts.PoseWorkers,
			SerialFraction: opts.PoseSerialFraction, Handler: handlePose, MaxInstances: 3,
		},
		{
			Name: ActivityClassifier, Cost: opts.ActivityCost, Workers: 2,
			Handler:      handleActivity(clf),
			MaxInstances: 2,
		},
		{
			Name: RepCounter, Cost: opts.RepCost, Workers: 2,
			Handler: handleRepCount,
		},
		{
			Name: Display, Cost: opts.DisplayCost, Workers: 2,
			Handler: handleDisplay,
		},
		{
			Name: ObjectDetector, Cost: opts.ObjectCost, Workers: 2, SerialFraction: 0.3,
			Handler: handleObjects, MaxInstances: 2,
		},
		{
			Name: ImageClassifier, Cost: opts.ClassifyCost, Workers: 2,
			Handler: handleClassify(imgClf), MaxInstances: 2,
		},
		{
			Name: FaceDetector, Cost: opts.FaceCost, Workers: 2,
			Handler: handleFace, MaxInstances: 2,
		},
		{
			Name: FallDetector, Cost: opts.FallCost, Workers: 2,
			Handler: handleFall,
		},
	}
	for _, s := range specs {
		if err := r.Register(s); err != nil {
			return nil, err
		}
	}
	// The image classifier trains online via classify requests carrying a
	// "train" label; expose the model through the registry-owned closure.
	return r, nil
}

// A pose travels between services and modules as
//
//	{keypoints: [{name, x, y} x 17], box: {min_x, min_y, max_x, max_y}, score}
//
// The conversion lives here, beside the handlers, so the vision package
// stays free of the script package. Its numbers go in and come out through
// the typed Object.SetNum and Object.Num, unboxed, under these keys.
var (
	keyX, keyY, keyScore               = unique.Make("x"), unique.Make("y"), unique.Make("score")
	keyMinX, keyMinY, keyMaxX, keyMaxY = unique.Make("min_x"), unique.Make("min_y"), unique.Make("max_x"), unique.Make("max_y")
	keyReps                            = unique.Make("reps")
)

// boxValue builds the script form of a bounding box, in one allocation.
func boxValue(b vision.Box) *script.Object {
	o := script.NewObjectSize(4)
	o.SetNum(keyMinX, b.MinX)
	o.SetNum(keyMinY, b.MinY)
	o.SetNum(keyMaxX, b.MaxX)
	o.SetNum(keyMaxY, b.MaxY)
	return o
}

// keypointNames are vision.KeypointNames as script values, boxed once.
var keypointNames = func() (names [vision.NumKeypoints]script.Value) {
	for i, n := range vision.KeypointNames {
		names[i] = n
	}
	return names
}()

// poseValue builds the script form of a pose: one allocation per object or
// array, none per number, and the keypoints are one record run of two.
func poseValue(p vision.Pose) *script.Object {
	kps := make([]script.Value, vision.NumKeypoints)
	run := script.NewObjectRun(vision.NumKeypoints, 3)
	for i, kp := range p.Keypoints {
		o := &run[i]
		o.Set("name", keypointNames[i])
		o.SetNum(keyX, kp.X)
		o.SetNum(keyY, kp.Y)
		kps[i] = o
	}
	pose := script.NewObjectSize(3)
	pose.Set("keypoints", &script.Array{Elems: kps})
	pose.Set("box", boxValue(p.Box))
	pose.SetNum(keyScore, p.Score)
	return pose
}

// poseFromValue reads a pose back out of its script form, in place: it
// allocates nothing and keeps nothing of obj.
func poseFromValue(obj *script.Object) (vision.Pose, error) {
	var p vision.Pose
	kps, _ := obj.Get("keypoints").(*script.Array)
	if kps == nil || len(kps.Elems) != vision.NumKeypoints {
		return p, fmt.Errorf("pose does not have %d keypoints", vision.NumKeypoints)
	}
	for i, raw := range kps.Elems {
		kp, ok := raw.(*script.Object)
		if !ok {
			return p, fmt.Errorf("keypoint %d is not an object", i)
		}
		x, okx := kp.Num(keyX)
		y, oky := kp.Num(keyY)
		if !okx || !oky {
			return p, fmt.Errorf("keypoint %d has non-numeric coordinates", i)
		}
		p.Keypoints[i] = vision.Point{X: x, Y: y}
	}
	if box, ok := obj.Get("box").(*script.Object); ok {
		p.Box.MinX, _ = box.Num(keyMinX)
		p.Box.MinY, _ = box.Num(keyMinY)
		p.Box.MaxX, _ = box.Num(keyMaxX)
		p.Box.MaxY, _ = box.Num(keyMaxY)
	}
	p.Score, _ = obj.Num(keyScore)
	return p, nil
}

// handlePose runs the 2D pose detector (paper §4.1.1).
func handlePose(_ context.Context, req Request) (Response, error) {
	if req.Frame == nil {
		return Response{}, fmt.Errorf("pose_detector: request carries no frame")
	}
	pose, found := vision.DetectPose(req.Frame)
	r := result("found", found)
	if found {
		r["pose"] = poseValue(pose)
	}
	return Response{Result: r}, nil
}

// handleActivity classifies a window of poses (paper §4.1.2).
func handleActivity(clf *vision.ActivityClassifier) Handler {
	return func(_ context.Context, req Request) (Response, error) {
		poses, ok := req.Args.Get("poses").(*script.Array)
		if !ok {
			return Response{}, fmt.Errorf("activity_classifier: missing poses argument")
		}
		if len(poses.Elems) != vision.WindowSize {
			return Response{}, fmt.Errorf("activity_classifier: got %d poses, want %d", len(poses.Elems), vision.WindowSize)
		}
		var window [vision.WindowSize]vision.Pose
		for i, raw := range poses.Elems {
			obj, ok := raw.(*script.Object)
			if !ok {
				return Response{}, fmt.Errorf("activity_classifier: pose %d is not an object", i)
			}
			p, err := poseFromValue(obj)
			if err != nil {
				return Response{}, fmt.Errorf("activity_classifier: pose %d: %w", i, err)
			}
			window[i] = p
		}
		label, conf, err := clf.Classify(window[:])
		if err != nil {
			return Response{}, fmt.Errorf("activity_classifier: %w", err)
		}
		return Response{Result: result(
			"activity", label.String(),
			"confidence", conf,
			"actionable", vision.Actionable(conf),
		)}, nil
	}
}

// stateScratch is what a rep_counter or fall_detector call needs besides its
// result — the decoded blob, its base64 form and a counter to restore into —
// borrowed for the call, so a warm call allocates little but its result.
type stateScratch struct {
	raw, b64 []byte
	rc       vision.RepCounter
}

var stateScratches = sync.Pool{New: func() any { return new(stateScratch) }}

// decodeState decodes the caller's opaque state argument ("" for a fresh
// one) into the scratch's raw buffer. The string is staged through b64
// because base64 appends from bytes only, and converting would allocate.
func (sc *stateScratch) decodeState(args *script.Object) error {
	state, _ := argString(args, "state")
	sc.b64 = append(sc.b64[:0], state...)
	var err error
	sc.raw, err = base64.StdEncoding.AppendDecode(sc.raw[:0], sc.b64)
	return err
}

// encodeState renders the scratch's raw buffer as the state string handed
// back to the caller.
func (sc *stateScratch) encodeState() string {
	sc.b64 = base64.StdEncoding.AppendEncode(sc.b64[:0], sc.raw)
	return string(sc.b64)
}

// handleRepCount advances the stateless rep counter (paper §4.1.3): the
// caller passes the previous state blob and the new pose, and receives the
// updated blob and count.
func handleRepCount(_ context.Context, req Request) (Response, error) {
	sc := stateScratches.Get().(*stateScratch)
	defer stateScratches.Put(sc)
	if err := sc.decodeState(req.Args); err != nil {
		return Response{}, fmt.Errorf("rep_counter: bad state encoding: %w", err)
	}
	if err := sc.rc.UnmarshalState(sc.raw); err != nil {
		return Response{}, fmt.Errorf("rep_counter: %w", err)
	}
	poseObj, ok := req.Args.Get("pose").(*script.Object)
	if !ok {
		return Response{}, fmt.Errorf("rep_counter: missing pose argument")
	}
	pose, err := poseFromValue(poseObj)
	if err != nil {
		return Response{}, fmt.Errorf("rep_counter: %w", err)
	}
	reps := sc.rc.Observe(pose)
	sc.raw = sc.rc.AppendState(sc.raw[:0])
	return Response{Result: result(
		"state", sc.encodeState(),
		"reps", float64(reps),
		"calibrated", sc.rc.Calibrated(),
	)}, nil
}

// handleFall advances the stateless fall detector (paper §4.3).
func handleFall(_ context.Context, req Request) (Response, error) {
	sc := stateScratches.Get().(*stateScratch)
	defer stateScratches.Put(sc)
	if err := sc.decodeState(req.Args); err != nil {
		return Response{}, fmt.Errorf("fall_detector: bad state encoding: %w", err)
	}
	fd, err := vision.RestoreFallDetector(sc.raw)
	if err != nil {
		return Response{}, fmt.Errorf("fall_detector: %w", err)
	}
	poseObj, ok := req.Args.Get("pose").(*script.Object)
	if !ok {
		return Response{}, fmt.Errorf("fall_detector: missing pose argument")
	}
	pose, err := poseFromValue(poseObj)
	if err != nil {
		return Response{}, fmt.Errorf("fall_detector: %w", err)
	}
	alert := fd.Observe(pose)
	sc.raw = fd.AppendState(sc.raw[:0])
	return Response{Result: result(
		"state", sc.encodeState(),
		"fallen", fd.Fallen(),
		"alert", alert,
	)}, nil
}

// handleObjects runs blob object detection.
func handleObjects(_ context.Context, req Request) (Response, error) {
	if req.Frame == nil {
		return Response{}, fmt.Errorf("object_detector: request carries no frame")
	}
	dets := vision.DetectObjects(req.Frame)
	objs := make([]script.Value, len(dets))
	for i, d := range dets {
		o := script.NewObjectSize(3)
		o.Set("label", d.Label)
		o.SetNum(keyScore, d.Score)
		o.Set("box", boxValue(d.Box))
		objs[i] = o
	}
	return Response{Result: result(
		"objects", &script.Array{Elems: objs}, "count", float64(len(dets)),
	)}, nil
}

// handleClassify serves the image classifier; requests with a "train"
// argument add a labelled example (model updates are append-only and
// thread-safe at the vision layer granularity, guarded here).
func handleClassify(clf *vision.ImageClassifier) Handler {
	var guard = make(chan struct{}, 1)
	guard <- struct{}{}
	return func(_ context.Context, req Request) (Response, error) {
		if req.Frame == nil {
			return Response{}, fmt.Errorf("image_classifier: request carries no frame")
		}
		<-guard
		defer func() { guard <- struct{}{} }()
		if label, ok := argString(req.Args, "train"); ok {
			if err := clf.Train(label, req.Frame); err != nil {
				return Response{}, fmt.Errorf("image_classifier: %w", err)
			}
			return Response{Result: result("trained", label)}, nil
		}
		label, conf, err := clf.Classify(req.Frame)
		if err != nil {
			return Response{}, fmt.Errorf("image_classifier: %w", err)
		}
		return Response{Result: result("label", label, "confidence", conf)}, nil
	}
}

// handleFace reports the head region of the detected person.
func handleFace(_ context.Context, req Request) (Response, error) {
	if req.Frame == nil {
		return Response{}, fmt.Errorf("face_detector: request carries no frame")
	}
	pose, found := vision.DetectPose(req.Frame)
	if !found {
		return Response{Result: result("found", false)}, nil
	}
	head := []vision.Point{
		pose.Keypoints[vision.Nose],
		pose.Keypoints[vision.LeftEye], pose.Keypoints[vision.RightEye],
		pose.Keypoints[vision.LeftEar], pose.Keypoints[vision.RightEar],
	}
	box := vision.Box{MinX: head[0].X, MinY: head[0].Y, MaxX: head[0].X, MaxY: head[0].Y}
	for _, p := range head[1:] {
		if p.X < box.MinX {
			box.MinX = p.X
		}
		if p.Y < box.MinY {
			box.MinY = p.Y
		}
		if p.X > box.MaxX {
			box.MaxX = p.X
		}
		if p.Y > box.MaxY {
			box.MaxY = p.Y
		}
	}
	pad := 1.2 * (box.MaxX - box.MinX)
	return Response{Result: result(
		"found", true,
		"box", boxValue(vision.Box{
			MinX: box.MinX - pad/2, MinY: box.MinY - pad/2,
			MaxX: box.MaxX + pad/2, MaxY: box.MaxY + pad,
		}),
	)}, nil
}

// handleDisplay composes the TV output (paper Fig. 3): the camera frame
// with the skeleton overlay, an activity color bar and rep-count tick
// marks. It returns the annotated frame.
func handleDisplay(_ context.Context, req Request) (Response, error) {
	if req.Frame == nil {
		return Response{}, fmt.Errorf("display: request carries no frame")
	}
	out := req.Frame.Clone()

	if poseObj, ok := req.Args.Get("pose").(*script.Object); ok {
		pose, err := poseFromValue(poseObj)
		if err != nil {
			out.Release()
			return Response{}, fmt.Errorf("display: %w", err)
		}
		overlay := color.RGBA{R: 255, G: 215, B: 0, A: 255}
		for _, bone := range vision.Bones {
			a := pose.Keypoints[bone[0]]
			b := pose.Keypoints[bone[1]]
			out.DrawLine(int(a.X)+1, int(a.Y)+1, int(b.X)+1, int(b.Y)+1, overlay)
		}
	}

	// Activity banner: a colored bar at the top whose hue encodes the label.
	if activity, ok := argString(req.Args, "activity"); ok && activity != "" {
		c := bannerColor(activity)
		out.DrawRect(0, 0, out.Width-1, 11, c)
	}

	// Rep counter: one tick mark per completed rep along the bottom.
	if reps, ok := req.Args.Num(keyReps); ok {
		tick := color.RGBA{R: 255, G: 255, B: 255, A: 255}
		for k := 0; k < int(reps) && 8+k*14 < out.Width; k++ {
			out.DrawRect(8+k*14, out.Height-16, 16+k*14, out.Height-8, tick)
		}
	}
	// The display service IS the screen: it renders in place. The composed
	// frame ships back only when the caller asks (return_frame), so remote
	// callers don't pay a pointless reverse transfer — and the clone is
	// recycled immediately when it stays here.
	resp := Response{Result: result("rendered", true)}
	if want, ok := req.Args.Get("return_frame").(bool); ok && want {
		resp.Frame = out
	} else {
		out.Release()
	}
	return resp, nil
}

// bannerColor derives a stable display color from an activity label.
func bannerColor(activity string) color.RGBA {
	var h uint32 = 2166136261
	for i := 0; i < len(activity); i++ {
		h ^= uint32(activity[i])
		h *= 16777619
	}
	return color.RGBA{
		R: uint8(64 + h%160),
		G: uint8(64 + (h>>8)%160),
		B: uint8(64 + (h>>16)%160),
		A: 255,
	}
}
