package vision

import (
	"image/color"
	"time"

	"videopipe/internal/frame"
)

// Keypoint marker colors. Each joint is rendered as a small disc of a
// distinctive color drawn from the {0,128,255} lattice; pairwise RGB
// distances stay >= ~127, which survives JPEG compression well enough for
// the pixel-level detector to classify marker pixels by nearest color.
// This marker scheme is what makes the pose "detectable" from pixels —
// the synthetic stand-in for texture a DNN would key on.
var markerColors = [NumKeypoints]color.RGBA{
	{R: 255, A: 255},                 // nose
	{G: 255, A: 255},                 // left eye
	{B: 255, A: 255},                 // right eye
	{R: 255, G: 255, A: 255},         // left ear
	{R: 255, B: 255, A: 255},         // right ear
	{G: 255, B: 255, A: 255},         // left shoulder
	{R: 255, G: 128, A: 255},         // right shoulder
	{R: 128, B: 255, A: 255},         // left elbow
	{G: 128, B: 255, A: 255},         // right elbow
	{R: 255, B: 128, A: 255},         // left wrist
	{R: 128, G: 255, A: 255},         // right wrist
	{G: 255, B: 128, A: 255},         // left hip
	{R: 255, G: 128, B: 255, A: 255}, // right hip
	{R: 128, G: 128, B: 255, A: 255}, // left knee
	{R: 255, G: 128, B: 128, A: 255}, // right knee
	{R: 128, G: 255, B: 255, A: 255}, // left ankle
	{R: 255, G: 255, B: 128, A: 255}, // right ankle
}

// Scene parameters shared by renderer and detector.
var (
	backgroundColor = color.RGBA{R: 16, G: 16, B: 16, A: 255}
	skeletonColor   = color.RGBA{R: 72, G: 72, B: 72, A: 255}
	headColor       = color.RGBA{R: 80, G: 64, B: 56, A: 255}
)

// markerRadius is the rendered joint disc radius in pixels.
const markerRadius = 3

// RenderPose draws a pose into f: skeleton bones, head disc, then joint
// markers on top. The frame should be filled with the scene background
// first (RenderScene does both).
func RenderPose(f *frame.Frame, p Pose) {
	for _, bone := range Bones {
		a, b := p.Keypoints[bone[0]], p.Keypoints[bone[1]]
		f.DrawLine(int(a.X), int(a.Y), int(b.X), int(b.Y), skeletonColor)
	}
	nose := p.Keypoints[Nose]
	f.DrawCircle(int(nose.X), int(nose.Y), markerRadius+2, headColor)
	for i, kp := range p.Keypoints {
		f.DrawCircle(int(kp.X), int(kp.Y), markerRadius, markerColors[i])
	}
}

// RenderScene fills a frame with the synthetic camera scene: background
// plus the subject's pose. The background clear — the only full-frame pass
// the renderer makes — runs row-parallel across the shared worker group;
// the pose drawing touches a few thousand pixels and stays serial.
func RenderScene(f *frame.Frame, p Pose) {
	fillBackground(f)
	RenderPose(f, p)
}

// fillBackground clears the frame: row 0 is painted once by copy-doubling,
// then the remaining rows copy it, striped across workers.
func fillBackground(f *frame.Frame) {
	stride := f.Width * 4
	if stride <= 0 || f.Height <= 0 {
		return
	}
	row0 := f.Pix[:stride]
	row0[0] = backgroundColor.R
	row0[1] = backgroundColor.G
	row0[2] = backgroundColor.B
	row0[3] = backgroundColor.A
	for filled := 4; filled < stride; filled *= 2 {
		copy(row0[filled:], row0[:filled])
	}
	frame.Stripes(f.Height-1, func(_, lo, hi int) {
		for y := lo + 1; y < hi+1; y++ {
			copy(f.Pix[y*stride:(y+1)*stride], row0)
		}
	})
}

// SceneRenderer returns a frame.Renderer producing an exercising subject,
// for use as a pipeline video source: the given activity at repRate reps
// per second, captured at the idealized camera position. Frames draw their
// buffers from the frame pool; the emit callback (or the store the frame
// lands in) owns the Release.
func SceneRenderer(width, height int, a Activity, repRate float64, s Subject) frame.Renderer {
	return func(seq uint64, elapsed time.Duration) (*frame.Frame, error) {
		f, err := frame.NewPooled(width, height)
		if err != nil {
			return nil, err
		}
		phase := s.Phase0 + elapsed.Seconds()*repRate
		if a == Fall {
			phase = minF(elapsed.Seconds()*repRate, 0.999)
		}
		pose := SynthesizePose(a, phase, s, nil)
		RenderScene(f, pose)
		return f, nil
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
