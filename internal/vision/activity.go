package vision

import (
	"fmt"
	"math"
)

// WindowSize is the number of consecutive pose frames the activity
// recognizer classifies at a time (paper §4.1.2: "we take a list of 15
// consecutive frames").
const WindowSize = 15

// WindowFeatures flattens a window of poses into one feature vector,
// normalizing each frame so (0,0) is the hip midpoint (paper §4.1.2: "we
// normalize the coordinates framewise so that (0,0) is located at the
// average of the left and right hips").
func WindowFeatures(window []Pose) ([]float64, error) {
	return appendWindowFeatures(make([]float64, 0, WindowSize*2*NumKeypoints), window)
}

func appendWindowFeatures(dst []float64, window []Pose) ([]float64, error) {
	if len(window) != WindowSize {
		return nil, fmt.Errorf("vision: window has %d poses, want %d", len(window), WindowSize)
	}
	for _, p := range window {
		dst = p.AppendFeatures(dst)
	}
	return dst, nil
}

// LabeledWindow is one training or test example.
type LabeledWindow struct {
	Label    Activity
	Features []float64
}

// ActivityClassifier is the paper's activity recognizer: k-nearest
// neighbours over normalized pose-sequence windows.
type ActivityClassifier struct {
	k       int
	samples []LabeledWindow
}

// NewActivityClassifier creates a classifier with the given neighbourhood
// size; k <= 0 selects 3.
func NewActivityClassifier(k int) *ActivityClassifier {
	if k <= 0 {
		k = 3
	}
	return &ActivityClassifier{k: k}
}

// Train adds labelled windows to the model. kNN is instance-based, so
// training is accumulation.
func (c *ActivityClassifier) Train(samples []LabeledWindow) error {
	for i, s := range samples {
		if len(s.Features) != WindowSize*2*NumKeypoints {
			return fmt.Errorf("vision: sample %d has %d features, want %d", i, len(s.Features), WindowSize*2*NumKeypoints)
		}
		if s.Label == 0 {
			return fmt.Errorf("vision: sample %d has no label", i)
		}
	}
	c.samples = append(c.samples, samples...)
	return nil
}

// Classify predicts the activity for a pose window and returns the label
// with its confidence (fraction of the k nearest neighbours agreeing). The
// window's feature vector lives on the stack, so a call allocates nothing.
func (c *ActivityClassifier) Classify(window []Pose) (Activity, float64, error) {
	var buf [WindowSize * 2 * NumKeypoints]float64
	feats, err := appendWindowFeatures(buf[:0], window)
	if err != nil {
		return 0, 0, err
	}
	return c.ClassifyFeatures(feats)
}

// ClassifyFeatures predicts from an already-extracted feature vector.
//
// The hot loop keeps only the k best neighbours (insertion into a tiny
// sorted array — no full sort over all samples) and abandons each squared
// distance as soon as it exceeds the current k-th best, so most training
// samples are rejected after a fraction of their 510 dimensions.
func (c *ActivityClassifier) ClassifyFeatures(feats []float64) (Activity, float64, error) {
	if len(c.samples) == 0 {
		return 0, 0, fmt.Errorf("vision: classifier has no training data")
	}
	if len(feats) != WindowSize*2*NumKeypoints {
		return 0, 0, fmt.Errorf("vision: feature vector has %d values, want %d", len(feats), WindowSize*2*NumKeypoints)
	}

	type scored struct {
		dist  float64
		label Activity
	}
	k := c.k
	if k > len(c.samples) {
		k = len(c.samples)
	}
	var arr [8]scored
	nearest := arr[:0]
	if k > len(arr) {
		nearest = make([]scored, 0, k)
	}
	for i := range c.samples {
		s := &c.samples[i]
		limit := math.Inf(1)
		if len(nearest) == k {
			limit = nearest[k-1].dist
		}
		d := sqDistLimit(feats, s.Features, limit)
		if d >= limit {
			continue
		}
		// Insert in ascending order, evicting the current worst when full.
		if len(nearest) < k {
			nearest = append(nearest, scored{})
		}
		j := len(nearest) - 1
		for j > 0 && nearest[j-1].dist > d {
			nearest[j] = nearest[j-1]
			j--
		}
		nearest[j] = scored{dist: d, label: s.Label}
	}

	var best Activity
	bestVotes := -1
	for i := range nearest {
		n := 0
		for j := range nearest {
			if nearest[j].label == nearest[i].label {
				n++
			}
		}
		if n > bestVotes || (n == bestVotes && nearest[i].label < best) {
			best, bestVotes = nearest[i].label, n
		}
	}
	return best, float64(bestVotes) / float64(k), nil
}

func sqDist(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// sqDistLimit is sqDist with early abandonment: once the partial sum
// exceeds limit the exact value can't matter to a nearest-neighbour
// comparison, so it returns immediately. The limit check runs once per
// 8-element block to keep the common path branch-light.
func sqDistLimit(a, b []float64, limit float64) float64 {
	var sum float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		for j := i; j < i+8; j++ {
			d := a[j] - b[j]
			sum += d * d
		}
		if sum >= limit {
			return sum
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// EvaluateAccuracy scores the classifier on a labelled test set, returning
// the fraction of correct predictions. It reproduces the paper's withheld
// test-set evaluation (§4.1.2 reports above 90%).
func (c *ActivityClassifier) EvaluateAccuracy(test []LabeledWindow) (float64, error) {
	if len(test) == 0 {
		return 0, fmt.Errorf("vision: empty test set")
	}
	correct := 0
	for _, s := range test {
		pred, _, err := c.ClassifyFeatures(s.Features)
		if err != nil {
			return 0, err
		}
		if pred == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(test)), nil
}

// SlidingWindows cuts a pose sequence into consecutive windows with the
// given stride, discarding a final partial window.
func SlidingWindows(poses []Pose, stride int) [][]Pose {
	if stride <= 0 {
		stride = 1
	}
	var out [][]Pose
	for start := 0; start+WindowSize <= len(poses); start += stride {
		out = append(out, poses[start:start+WindowSize])
	}
	return out
}

// Confidence helpers used by gesture applications: a classification is
// actionable only when it is strong and stable.
const minActionableConfidence = 0.6

// Actionable reports whether a classification is confident enough to
// trigger an IoT action.
func Actionable(conf float64) bool { return conf >= minActionableConfidence && !math.IsNaN(conf) }
