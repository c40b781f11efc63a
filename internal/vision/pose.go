// Package vision implements the computer-vision algorithms behind
// VideoPipe's stateless services, operating on synthetic data in place of
// the paper's DNN models (see DESIGN.md §1 for the substitution argument):
//
//   - a parametric human-motion synthesizer that generates 2D poses for the
//     exercises and gestures the paper's applications use;
//   - a renderer that draws those poses into camera frames, and a pixel-level
//     pose detector that recovers the 17 keypoints plus a person bounding box
//     (paper §4.1.1);
//   - the activity recognizer: nearest-neighbour over 15-frame, hip-centred
//     normalized pose windows (paper §4.1.2);
//   - the rep counter: 2-means clustering over framewise poses with a 4-frame
//     debounce on state transitions (paper §4.1.3);
//   - blob-based object detection, nearest-centroid image classification and
//     a rule-based fall detector for the remaining services (§2.2, §4.3).
package vision

import "math"

// Point is a 2D image coordinate in pixels (or normalized units, per
// context).
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// NumKeypoints is the number of pose keypoints, matching the paper's
// 17-keypoint 2D pose detector (COCO layout).
const NumKeypoints = 17

// Keypoint indices in the COCO ordering.
const (
	Nose = iota
	LeftEye
	RightEye
	LeftEar
	RightEar
	LeftShoulder
	RightShoulder
	LeftElbow
	RightElbow
	LeftWrist
	RightWrist
	LeftHip
	RightHip
	LeftKnee
	RightKnee
	LeftAnkle
	RightAnkle
)

// KeypointNames maps keypoint indices to their conventional names.
var KeypointNames = [NumKeypoints]string{
	"nose", "left_eye", "right_eye", "left_ear", "right_ear",
	"left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
	"left_wrist", "right_wrist", "left_hip", "right_hip",
	"left_knee", "right_knee", "left_ankle", "right_ankle",
}

// Bones are the skeleton edges drawn by the renderer and overlay.
var Bones = [][2]int{
	{LeftShoulder, RightShoulder},
	{LeftShoulder, LeftElbow}, {LeftElbow, LeftWrist},
	{RightShoulder, RightElbow}, {RightElbow, RightWrist},
	{LeftShoulder, LeftHip}, {RightShoulder, RightHip},
	{LeftHip, RightHip},
	{LeftHip, LeftKnee}, {LeftKnee, LeftAnkle},
	{RightHip, RightKnee}, {RightKnee, RightAnkle},
}

// Box is an axis-aligned bounding box in pixel coordinates.
type Box struct {
	MinX, MinY, MaxX, MaxY float64
}

// Center reports the box center point.
func (b Box) Center() Point { return Point{X: (b.MinX + b.MaxX) / 2, Y: (b.MinY + b.MaxY) / 2} }

// Pose is a detected or synthesized 2D human pose: 17 keypoints, a person
// bounding box and a detector confidence score.
type Pose struct {
	Keypoints [NumKeypoints]Point
	Box       Box
	Score     float64
}

// HipCenter returns the midpoint of the two hips — the origin used for
// framewise normalization (paper §4.1.2: "(0,0) is located at the average
// of the left and right hips").
func (p Pose) HipCenter() Point {
	l, r := p.Keypoints[LeftHip], p.Keypoints[RightHip]
	return Point{X: (l.X + r.X) / 2, Y: (l.Y + r.Y) / 2}
}

// Normalize returns the pose translated so the hip center is the origin and
// scaled by the torso length, making features invariant to subject position
// and size.
func (p Pose) Normalize() Pose {
	hc := p.HipCenter()
	sc := Point{
		X: (p.Keypoints[LeftShoulder].X + p.Keypoints[RightShoulder].X) / 2,
		Y: (p.Keypoints[LeftShoulder].Y + p.Keypoints[RightShoulder].Y) / 2,
	}
	torso := hc.Dist(sc)
	if torso < 1e-9 {
		torso = 1
	}
	out := p
	for i, kp := range p.Keypoints {
		out.Keypoints[i] = Point{X: (kp.X - hc.X) / torso, Y: (kp.Y - hc.Y) / torso}
	}
	out.Box = Box{
		MinX: (p.Box.MinX - hc.X) / torso, MinY: (p.Box.MinY - hc.Y) / torso,
		MaxX: (p.Box.MaxX - hc.X) / torso, MaxY: (p.Box.MaxY - hc.Y) / torso,
	}
	return out
}

// AppendFeatures appends the pose's feature vector to dst: a caller with
// room in dst, an array on its stack, allocates nothing.
func (p Pose) AppendFeatures(dst []float64) []float64 {
	for _, kp := range p.Normalize().Keypoints {
		dst = append(dst, kp.X, kp.Y)
	}
	return dst
}

// BoundingBox computes the tight box around the keypoints with a margin.
func (p Pose) BoundingBox(margin float64) Box {
	b := Box{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, kp := range p.Keypoints {
		b.MinX = math.Min(b.MinX, kp.X)
		b.MinY = math.Min(b.MinY, kp.Y)
		b.MaxX = math.Max(b.MaxX, kp.X)
		b.MaxY = math.Max(b.MaxY, kp.Y)
	}
	b.MinX -= margin
	b.MinY -= margin
	b.MaxX += margin
	b.MaxY += margin
	return b
}
