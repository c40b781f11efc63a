package vision

import (
	"encoding/binary"
	"fmt"
	"math"
)

// State serialization for the algorithms that back *stateless* services.
// The paper's services "receive needed data as input so they do not require
// saving state" (§2.2): the module owns the state blob and passes it with
// every call; the service returns the updated blob. These marshallers are
// that blob.
//
// A blob is opaque to its holder and never outlives the process that wrote
// it, so the format is whatever is cheapest to write and read every frame:
// 8-byte little-endian words, the first the format version, integers and
// booleans as they are, floats as their IEEE bits. A blob with another
// version is an error, not something to migrate.

// stateVersion is the first word of both blob formats.
const stateVersion = 1

// featureDim is the length of Pose.Features, the rep counter's frame
// vector.
const featureDim = 2 * NumKeypoints

// AppendState appends the counter's state blob to dst, for stateless
// service round trips.
func (rc *RepCounter) AppendState(dst []byte) []byte {
	dst = appendWords(dst, stateVersion, rc.debounce, rc.calibration, rc.initialState, rc.state,
		rc.pendingState, rc.pendingCount, rc.reps, rc.framesSeen,
		boolWord(rc.fitted), boolWord(rc.leftInitial), len(rc.buf)/featureDim)
	dst = appendFloats(dst, rc.buf)
	if rc.fitted {
		dst = appendFloats(appendFloats(dst, rc.centroids[0]), rc.centroids[1])
	}
	return dst
}

// UnmarshalState replaces the counter's state with the one in an
// AppendState blob, reusing the counter's buffers. Empty input yields a
// fresh default counter. On error the counter is left fresh.
func (rc *RepCounter) UnmarshalState(data []byte) error {
	buf, c0, c1 := rc.buf[:0], rc.centroids[0][:0], rc.centroids[1][:0]
	*rc = newRepCounter(0, 0)
	rc.buf = buf
	if len(data) == 0 {
		return nil
	}
	r := blobReader{data: data}
	version := r.int()
	st := newRepCounter(r.int(), r.int())
	st.initialState, st.state = r.int(), r.int()
	st.pendingState, st.pendingCount = r.int(), r.int()
	st.reps, st.framesSeen = r.int(), r.int()
	st.fitted, st.leftInitial = r.int() != 0, r.int() != 0
	if frames := r.int(); frames >= 0 && frames <= len(r.data)/(8*featureDim) {
		st.buf = r.floats(buf, frames*featureDim)
	} else {
		r.bad = true
	}
	if st.fitted {
		st.centroids[0] = r.floats(c0, featureDim)
		st.centroids[1] = r.floats(c1, featureDim)
	}
	if version != stateVersion || r.bad || len(r.data) != 0 {
		return fmt.Errorf("vision: restore rep counter: not a version-%d state blob, or a damaged one", stateVersion)
	}
	*rc = st
	return nil
}

// AppendState appends the detector's state blob to dst, for stateless
// service round trips.
func (d *FallDetector) AppendState(dst []byte) []byte {
	dst = appendWords(dst, stateVersion, d.samples, d.downStreak, boolWord(d.fallen))
	return appendFloats(dst, []float64{d.baselineHipY, d.torsoLen})
}

// RestoreFallDetector reconstructs a detector from an AppendState blob.
// Empty input yields a fresh detector.
func RestoreFallDetector(data []byte) (*FallDetector, error) {
	d := NewFallDetector()
	if len(data) == 0 {
		return d, nil
	}
	r := blobReader{data: data}
	version := r.int()
	d.samples, d.downStreak, d.fallen = r.int(), r.int(), r.int() != 0
	d.baselineHipY, d.torsoLen = math.Float64frombits(r.word()), math.Float64frombits(r.word())
	if version != stateVersion || r.bad || len(r.data) != 0 {
		return nil, fmt.Errorf("vision: restore fall detector: not a version-%d state blob, or a damaged one", stateVersion)
	}
	if math.IsNaN(d.baselineHipY) || math.IsNaN(d.torsoLen) {
		return nil, fmt.Errorf("vision: restore fall detector: NaN state")
	}
	return d, nil
}

func boolWord(b bool) int {
	if b {
		return 1
	}
	return 0
}

func appendWords(dst []byte, words ...int) []byte {
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(w))
	}
	return dst
}

func appendFloats(dst []byte, fs []float64) []byte {
	for _, f := range fs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// blobReader consumes a state blob's words front to back; a read past the
// end sets bad and yields zeros, so callers check once.
type blobReader struct {
	data []byte
	bad  bool
}

func (r *blobReader) word() uint64 {
	if len(r.data) < 8 {
		r.bad = true
		return 0
	}
	w := binary.LittleEndian.Uint64(r.data)
	r.data = r.data[8:]
	return w
}

func (r *blobReader) int() int { return int(r.word()) }

// floats appends n floats to dst (which it may grow).
func (r *blobReader) floats(dst []float64, n int) []float64 {
	for i := 0; i < n && !r.bad; i++ {
		dst = append(dst, math.Float64frombits(r.word()))
	}
	return dst
}
