package vision

import "videopipe/internal/frame"

// markerMatchThreshold is the maximum RGB distance for a pixel to count as
// a joint marker. Marker colors are >= ~127 apart, so 60 leaves a healthy
// margin for JPEG artifacts while rejecting background and skeleton pixels.
const markerMatchThreshold = 60

// minMarkerChannel is the classification quick-reject bound: every palette
// entry has at least one channel equal to 255, so a pixel within
// markerMatchThreshold of any marker must have a channel >= 255 - 60. A
// pixel with all channels below this can't match and skips the 17-color
// distance loop — which is every background (16), skeleton (72) and head
// (80) pixel, i.e. almost the whole frame.
const minMarkerChannel = 255 - markerMatchThreshold

// noMarker labels a pixel that matches no joint marker.
const noMarker = 0xff

// detectScratch is what one detection needs besides its frame: a
// foreground extent and centroid sums per stripe (DetectPose's), and the row
// functions, bound once so a striped pass hands frame.Stripes nothing new.
// The pixel labels (one byte per pixel, the dominant allocation of
// DetectPose before pooling) are borrowed from frame.Pool for the call. Idle
// scratches wait in scratches, one per detection running at once up to its
// capacity.
type detectScratch struct {
	f      *frame.Frame
	labels []byte
	fg     []extent
	sums   []centroidSums

	classify, erode, objects func(stripe, lo, hi int)
}

type centroidSums struct {
	x, y  [NumKeypoints]int64
	count [NumKeypoints]int
}

var scratches = make(chan *detectScratch, 32)

func getScratch(f *frame.Frame) *detectScratch {
	var s *detectScratch
	select {
	case s = <-scratches:
	default:
		s = &detectScratch{fg: make([]extent, frame.MaxStripes()), sums: make([]centroidSums, frame.MaxStripes())}
		s.classify, s.erode, s.objects = s.classifyStripe, s.erodeStripe, s.objectStripe
	}
	s.f = f
	return s
}

func (s *detectScratch) release() {
	s.f, s.labels = nil, nil
	select {
	case scratches <- s:
	default:
	}
}

// mergeExtents folds per-stripe extents together, in stripe order.
func mergeExtents(parts []extent) extent {
	fg := newExtent()
	for _, part := range parts {
		fg.merge(part)
	}
	return fg
}

// extent is a foreground bounding region accumulated in integer pixel
// coordinates, so striped accumulation is order-independent and merges
// exactly.
type extent struct {
	minX, minY, maxX, maxY int
	count                  int
}

func newExtent() extent { return extent{minX: 1 << 30, minY: 1 << 30, maxX: -1, maxY: -1} }

func (e *extent) add(x, y int) {
	if x < e.minX {
		e.minX = x
	}
	if y < e.minY {
		e.minY = y
	}
	if x > e.maxX {
		e.maxX = x
	}
	if y > e.maxY {
		e.maxY = y
	}
	e.count++
}

func (e *extent) merge(o extent) {
	if o.minX < e.minX {
		e.minX = o.minX
	}
	if o.minY < e.minY {
		e.minY = o.minY
	}
	if o.maxX > e.maxX {
		e.maxX = o.maxX
	}
	if o.maxY > e.maxY {
		e.maxY = o.maxY
	}
	e.count += o.count
}

func (e *extent) box() Box {
	return Box{MinX: float64(e.minX), MinY: float64(e.minY), MaxX: float64(e.maxX), MaxY: float64(e.maxY)}
}

// foregroundThreshold: anything meaningfully brighter than background.
var foregroundThreshold = 3*int(backgroundColor.R) + 60

// DetectPose recovers the 2D pose from a rendered frame: it classifies
// pixels against the 17 joint marker colors, takes the centroid of each
// color's pixels as the keypoint, and derives the person bounding box from
// all foreground pixels (paper §4.1.1: "detects a human and places a
// bounding box around them; within that bounding box it detects 17
// keypoints").
//
// Both passes stripe their row loops across the shared worker group
// (frame.Stripes), one partial per stripe merged in stripe order after the
// wait; centroids accumulate in int64 so results are identical at any
// worker count. A warm detection allocates nothing.
//
// The returned bool is false when no person is visible (fewer than half
// the markers found). Score is the fraction of markers located.
func DetectPose(f *frame.Frame) (Pose, bool) {
	w, h := f.Width, f.Height
	if w <= 0 || h <= 0 {
		return Pose{}, false
	}
	s := getScratch(f)
	defer s.release()
	s.labels = frame.Pool.GetDirty(w * h)
	defer frame.Pool.Put(s.labels)

	// Pass 1: classify each pixel against the marker palette and track the
	// foreground extent, row-striped with one partial per stripe.
	fg := mergeExtents(s.fg[:frame.Stripes(h, s.classify)])

	// Pass 2: accumulate centroids over *core* pixels only — pixels whose
	// four neighbours carry the same label. Compression blurs marker edges
	// into colors that can fall near a different palette entry; interiors
	// survive, so eroding by one pixel rejects the contamination. The
	// stripes read labels across their row boundaries, which is safe: the
	// label array is complete and read-only by now.
	var sums centroidSums
	for _, part := range s.sums[:frame.Stripes(h-2, s.erode)] {
		for k := 0; k < NumKeypoints; k++ {
			sums.x[k] += part.x[k]
			sums.y[k] += part.y[k]
			sums.count[k] += part.count[k]
		}
	}

	var p Pose
	found := 0
	for k := 0; k < NumKeypoints; k++ {
		if c := sums.count[k]; c > 0 {
			p.Keypoints[k] = Point{X: float64(sums.x[k]) / float64(c), Y: float64(sums.y[k]) / float64(c)}
			found++
		}
	}
	if found < NumKeypoints/2 || fg.count == 0 {
		return Pose{}, false
	}
	// Fill any missed keypoints with the box center so downstream feature
	// vectors stay well-formed.
	p.Box = fg.box()
	center := p.Box.Center()
	for k := 0; k < NumKeypoints; k++ {
		if sums.count[k] == 0 {
			p.Keypoints[k] = center
		}
	}
	p.Score = float64(found) / NumKeypoints
	return p, true
}

// classifyStripe labels rows [lo, hi) and records their foreground extent.
func (s *detectScratch) classifyStripe(stripe, lo, hi int) {
	f, labels := s.f, s.labels
	w := f.Width
	e := newExtent()
	for y := lo; y < hi; y++ {
		row := f.Pix[y*w*4 : (y+1)*w*4]
		base := y * w
		for x := 0; x < w; x++ {
			i := x * 4
			r := int(row[i])
			g := int(row[i+1])
			b := int(row[i+2])

			if r+g+b > foregroundThreshold {
				e.add(x, y)
			}

			if r < minMarkerChannel && g < minMarkerChannel && b < minMarkerChannel {
				labels[base+x] = noMarker
				continue
			}
			best, bestDist := noMarker, markerMatchThreshold*markerMatchThreshold+1
			for k := range markerColors {
				mc := &markerColors[k]
				dr := r - int(mc.R)
				dg := g - int(mc.G)
				db := b - int(mc.B)
				d := dr*dr + dg*dg + db*db
				if d < bestDist {
					best, bestDist = k, d
				}
			}
			labels[base+x] = byte(best)
		}
	}
	s.fg[stripe] = e
}

// erodeStripe records the core-pixel centroid partials of label rows
// [lo+1, hi+1), which lie within [1, h-1).
func (s *detectScratch) erodeStripe(stripe, lo, hi int) {
	labels, w := s.labels, s.f.Width
	part := &s.sums[stripe]
	*part = centroidSums{}
	for y := lo + 1; y < hi+1; y++ {
		rowBase := y * w
		for x := 1; x < w-1; x++ {
			i := rowBase + x
			k := labels[i]
			if k == noMarker {
				continue
			}
			if labels[i-1] != k || labels[i+1] != k || labels[i-w] != k || labels[i+w] != k {
				continue
			}
			part.x[k] += int64(x)
			part.y[k] += int64(y)
			part.count[k]++
		}
	}
}
