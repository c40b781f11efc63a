package vision

import "math"

// FallDetector implements the fall-detection service behind the paper's
// §4.3 application. It is rule-based over pose geometry: a fall is a
// sustained combination of (a) torso near horizontal and (b) the hip
// center having dropped far below its running baseline.
type FallDetector struct {
	// tiltThreshold is the torso angle from vertical (radians) above which
	// the body counts as "down".
	tiltThreshold float64
	// dropFraction is how far the hips must fall, as a fraction of torso
	// length, relative to the baseline.
	dropFraction float64
	// holdFrames is how many consecutive "down" frames constitute a fall,
	// filtering exercise motion.
	holdFrames int

	baselineHipY float64
	torsoLen     float64
	samples      int
	downStreak   int
	fallen       bool
}

// NewFallDetector creates a detector with sensible defaults.
func NewFallDetector() *FallDetector {
	return &FallDetector{
		tiltThreshold: math.Pi / 3, // 60 degrees from vertical
		dropFraction:  0.5,
		holdFrames:    5,
	}
}

// Fallen reports whether a fall has been detected.
func (d *FallDetector) Fallen() bool { return d.fallen }

// Observe consumes one pose; it returns true on the frame a fall is first
// confirmed.
func (d *FallDetector) Observe(p Pose) bool {
	hip := p.HipCenter()
	shoulder := Point{
		X: (p.Keypoints[LeftShoulder].X + p.Keypoints[RightShoulder].X) / 2,
		Y: (p.Keypoints[LeftShoulder].Y + p.Keypoints[RightShoulder].Y) / 2,
	}
	torso := hip.Dist(shoulder)
	tilt := math.Atan2(math.Abs(shoulder.X-hip.X), math.Abs(hip.Y-shoulder.Y))

	// Establish the standing baseline from early upright frames.
	if d.samples < 10 && tilt < math.Pi/6 {
		d.baselineHipY = (d.baselineHipY*float64(d.samples) + hip.Y) / float64(d.samples+1)
		d.torsoLen = (d.torsoLen*float64(d.samples) + torso) / float64(d.samples+1)
		d.samples++
		return false
	}
	if d.samples == 0 {
		// Never saw an upright frame yet; can't judge drops.
		return false
	}

	dropped := hip.Y-d.baselineHipY > d.dropFraction*d.torsoLen
	tilted := tilt > d.tiltThreshold
	if dropped && tilted {
		d.downStreak++
	} else {
		d.downStreak = 0
		// Recovery: standing upright again clears the alarm.
		if d.fallen && !dropped && tilt < math.Pi/6 {
			d.fallen = false
		}
	}
	if d.downStreak >= d.holdFrames && !d.fallen {
		d.fallen = true
		return true
	}
	return false
}
