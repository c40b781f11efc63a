package vision

import (
	"fmt"
	"math"
)

// RepCounter implements the paper's rep counting algorithm (§4.1.3):
//
//	"We use k-means with k = 2 to classify the frames into a cluster that
//	occurs near the start of the exercise and a cluster that occurs near
//	the end of an exercise. To avoid issues with boundary cases, we
//	require 4 frames to have transitioned to count a state transition …
//	We count a state transition from and back to the initial state as a
//	single rep."
//
// The counter consumes framewise poses online. It buffers an initial
// calibration window, fits 2-means over those frames' normalized features,
// labels every subsequent frame by nearest centroid with a 4-frame
// debounce, and counts a rep per return to the initial cluster.
type RepCounter struct {
	// DebounceFrames is the number of consecutive frames in the other
	// cluster required to accept a state transition. The paper uses 4.
	debounce int
	// calibration frames required before counting starts.
	calibration int

	// buf holds the calibration frames' feature vectors end to end,
	// featureDim floats each.
	buf       []float64
	centroids [2][]float64
	fitted    bool

	initialState int
	state        int
	pendingState int
	pendingCount int
	leftInitial  bool
	reps         int
	framesSeen   int
}

// DefaultDebounce is the paper's 4-frame transition requirement.
const DefaultDebounce = 4

// defaultCalibration frames cover at least one full rep at typical rates
// before the clusters are fitted.
const defaultCalibration = 40

// NewRepCounter creates a counter. debounce <= 0 selects the paper's 4;
// calibration <= 0 selects a default one-rep window.
func NewRepCounter(debounce, calibration int) *RepCounter {
	rc := newRepCounter(debounce, calibration)
	return &rc
}

func newRepCounter(debounce, calibration int) RepCounter {
	if debounce <= 0 {
		debounce = DefaultDebounce
	}
	if calibration <= 0 {
		calibration = defaultCalibration
	}
	return RepCounter{debounce: debounce, calibration: calibration, state: -1, pendingState: -1}
}

// Reps reports the number of completed reps.
func (rc *RepCounter) Reps() int { return rc.reps }

// Calibrated reports whether the 2-means model has been fitted.
func (rc *RepCounter) Calibrated() bool { return rc.fitted }

// Observe consumes one pose and returns the current rep count. Once the
// counter is fitted, a call allocates nothing.
func (rc *RepCounter) Observe(p Pose) int {
	rc.framesSeen++
	var buf [featureDim]float64
	feats := p.AppendFeatures(buf[:0])

	if !rc.fitted {
		rc.buf = append(rc.buf, feats...)
		if n := len(rc.buf) / featureDim; n >= rc.calibration {
			rc.fit()
			// Replay the calibration buffer through the state machine so
			// reps performed during calibration are counted too.
			for i := 0; i < n; i++ {
				rc.observeLabeled(rc.nearest(rc.frame(i)))
			}
			rc.buf = rc.buf[:0]
		}
		return rc.reps
	}
	rc.observeLabeled(rc.nearest(feats))
	return rc.reps
}

// fit runs 2-means over the calibration buffer (Lloyd's algorithm with
// farthest-point initialization, which is deterministic).
func (rc *RepCounter) fit() {
	n := len(rc.buf) / featureDim
	dim := featureDim

	// Initialize: first centroid = first frame; second = farthest frame.
	c0 := append([]float64(nil), rc.frame(0)...)
	far, farDist := 0, -1.0
	for i := 0; i < n; i++ {
		if d := sqDist(rc.frame(i), c0); d > farDist {
			far, farDist = i, d
		}
	}
	c1 := append([]float64(nil), rc.frame(far)...)
	rc.centroids[0], rc.centroids[1] = c0, c1

	assign := make([]int, n)
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			a := rc.nearest(rc.frame(i))
			if a != assign[i] {
				assign[i] = a
				changed = true
			}
		}
		var sums [2][]float64
		var counts [2]int
		sums[0] = make([]float64, dim)
		sums[1] = make([]float64, dim)
		for i := 0; i < n; i++ {
			a := assign[i]
			counts[a]++
			for j, v := range rc.frame(i) {
				sums[a][j] += v
			}
		}
		for a := 0; a < 2; a++ {
			if counts[a] == 0 {
				continue
			}
			for j := range sums[a] {
				rc.centroids[a][j] = sums[a][j] / float64(counts[a])
			}
		}
		if !changed && iter > 0 {
			break
		}
	}

	// The initial state is the cluster of the earliest frames: take the
	// majority over the first debounce-length prefix.
	votes := 0
	prefix := rc.debounce
	if prefix > n {
		prefix = n
	}
	for i := 0; i < prefix; i++ {
		if rc.nearest(rc.frame(i)) == 0 {
			votes++
		}
	}
	rc.initialState = 1
	if votes*2 >= prefix {
		rc.initialState = 0
	}
	rc.state = rc.initialState
	rc.fitted = true
}

// frame is the i-th buffered calibration frame's feature vector.
func (rc *RepCounter) frame(i int) []float64 {
	return rc.buf[i*featureDim : (i+1)*featureDim]
}

// nearest labels a frame by nearest centroid on squared distance (ordering
// only — no sqrt), abandoning the second distance once it can't win.
func (rc *RepCounter) nearest(f []float64) int {
	d0 := sqDist(f, rc.centroids[0])
	if sqDistLimit(f, rc.centroids[1], d0) >= d0 {
		return 0
	}
	return 1
}

// observeLabeled advances the debounced two-state machine: a transition is
// accepted only after `debounce` consecutive frames in the other state; a
// completed excursion from the initial state and back counts one rep.
func (rc *RepCounter) observeLabeled(label int) {
	if label == rc.state {
		rc.pendingState = -1
		rc.pendingCount = 0
		return
	}
	if label != rc.pendingState {
		rc.pendingState = label
		rc.pendingCount = 0
	}
	rc.pendingCount++
	if rc.pendingCount < rc.debounce {
		return
	}
	// Accepted transition.
	rc.state = label
	rc.pendingState = -1
	rc.pendingCount = 0
	if rc.state != rc.initialState {
		rc.leftInitial = true
	} else if rc.leftInitial {
		rc.reps++
		rc.leftInitial = false
	}
}

// Reset clears all counter state, keeping configuration.
func (rc *RepCounter) Reset() {
	rc.buf = rc.buf[:0]
	rc.fitted = false
	rc.initialState = 0
	rc.state = -1
	rc.pendingState = -1
	rc.pendingCount = 0
	rc.leftInitial = false
	rc.reps = 0
	rc.framesSeen = 0
}

// CountReps is the batch interface: feed a full pose sequence and return
// the final count.
func CountReps(poses []Pose, debounce, calibration int) int {
	rc := NewRepCounter(debounce, calibration)
	for _, p := range poses {
		rc.Observe(p)
	}
	return rc.Reps()
}

// RepAccuracy scores a predicted count against ground truth the way the
// paper's test set does: 1 - |pred - truth| / truth, floored at zero.
func RepAccuracy(pred, truth int) float64 {
	if truth == 0 {
		if pred == 0 {
			return 1
		}
		return 0
	}
	acc := 1 - math.Abs(float64(pred-truth))/float64(truth)
	if acc < 0 {
		return 0
	}
	return acc
}

// String summarizes counter state for diagnostics.
func (rc *RepCounter) String() string {
	return fmt.Sprintf("reps=%d frames=%d calibrated=%v", rc.reps, rc.framesSeen, rc.fitted)
}
