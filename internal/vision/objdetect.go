package vision

import (
	"image/color"
	"sort"
	"unsafe"

	"videopipe/internal/frame"
)

// Detection is one detected object: a bounding box, a class label and a
// confidence score.
type Detection struct {
	Label string
	Box   Box
	Score float64
}

// objectClasses maps the distinctive colors of synthetic scene objects to
// class labels. Scenes rendered for the object-detection service draw
// household objects as colored shapes; detection is connected-component
// analysis over these classes.
var objectClasses = []struct {
	name  string
	color color.RGBA
}{
	{"person", color.RGBA{R: 224, G: 180, B: 150, A: 255}},
	{"chair", color.RGBA{R: 150, G: 75, B: 0, A: 255}},
	{"bottle", color.RGBA{R: 0, G: 180, B: 60, A: 255}},
	{"tv", color.RGBA{R: 40, G: 40, B: 200, A: 255}},
	{"cup", color.RGBA{R: 220, G: 40, B: 180, A: 255}},
	{"book", color.RGBA{R: 230, G: 220, B: 40, A: 255}},
}

// objectMatchThreshold is the max RGB distance for a pixel to belong to an
// object class.
const objectMatchThreshold = 55

// minObjectChannelSum is the classification quick-reject bound: the dimmest
// class (chair, 150+75+0=225) still sums to 225, and a pixel within
// objectMatchThreshold of any class deviates by at most 55 per channel, so
// its channel sum is >= 225 - 3*55 = 60. Anything dimmer — every
// background pixel — skips the 6-class distance loop.
const minObjectChannelSum = 225 - 3*objectMatchThreshold

// minObjectPixels suppresses speckle detections.
const minObjectPixels = 12

// ObjectColor returns the canonical render color for a class, for scene
// generators; ok is false for unknown labels.
func ObjectColor(label string) (color.RGBA, bool) {
	for _, oc := range objectClasses {
		if oc.name == label {
			return oc.color, true
		}
	}
	return color.RGBA{}, false
}

// noObject labels a pixel of no object class.
const noObject = 0xff

// DetectObjects finds all objects in a frame by connected-component
// analysis over class-colored pixels (4-connectivity, union-find). The
// classification pass is row-striped across the shared worker group with a
// channel-sum quick reject; the union-find stays serial (it is a small
// fraction of the work and inherently order-dependent). Both per-pixel
// planes, the class labels and the union-find parents, are borrowed from
// frame.Pool for the call, and the row function is bound once in a reused
// detection scratch, as DetectPose's are.
func DetectObjects(f *frame.Frame) []Detection {
	w, h := f.Width, f.Height
	s := getScratch(f)
	defer s.release()
	s.labels = frame.Pool.GetDirty(w * h)
	defer frame.Pool.Put(s.labels)
	classOf := s.labels
	frame.Stripes(h, s.objects)

	// Union-find over same-class 4-neighbours. The parents are int32s laid
	// over a pooled byte buffer: the pool hands out whole allocations, which
	// Go aligns to 8 bytes.
	parentBuf := frame.Pool.GetDirty(4 * w * h)
	defer frame.Pool.Put(parentBuf)
	parent := unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(parentBuf))), w*h)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			if classOf[i] == noObject {
				continue
			}
			if x+1 < w && classOf[i+1] == classOf[i] {
				union(int32(i), int32(i+1))
			}
			if y+1 < h && classOf[i+w] == classOf[i] {
				union(int32(i), int32(i+w))
			}
		}
	}

	type comp struct {
		class                  byte
		count                  int
		minX, minY, maxX, maxY int
	}
	comps := make(map[int32]*comp)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			if classOf[i] == noObject {
				continue
			}
			root := find(int32(i))
			c, ok := comps[root]
			if !ok {
				c = &comp{class: classOf[i], minX: x, minY: y, maxX: x, maxY: y}
				comps[root] = c
			}
			c.count++
			if x < c.minX {
				c.minX = x
			}
			if y < c.minY {
				c.minY = y
			}
			if x > c.maxX {
				c.maxX = x
			}
			if y > c.maxY {
				c.maxY = y
			}
		}
	}

	var out []Detection
	for _, c := range comps {
		if c.count < minObjectPixels {
			continue
		}
		area := (c.maxX - c.minX + 1) * (c.maxY - c.minY + 1)
		score := float64(c.count) / float64(area) // fill ratio as confidence
		if score > 1 {
			score = 1
		}
		out = append(out, Detection{
			Label: objectClasses[c.class].name,
			Box:   Box{MinX: float64(c.minX), MinY: float64(c.minY), MaxX: float64(c.maxX), MaxY: float64(c.maxY)},
			Score: score,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Box.MinY != out[j].Box.MinY {
			return out[i].Box.MinY < out[j].Box.MinY
		}
		return out[i].Box.MinX < out[j].Box.MinX
	})
	return out
}

// objectStripe labels rows [lo, hi) with their object class, noObject for none.
func (s *detectScratch) objectStripe(_, lo, hi int) {
	f, classOf := s.f, s.labels
	w := f.Width
	for y := lo; y < hi; y++ {
		row := f.Pix[y*w*4 : (y+1)*w*4]
		base := y * w
		for x := 0; x < w; x++ {
			pi := x * 4
			r := int(row[pi])
			g := int(row[pi+1])
			b := int(row[pi+2])
			if r+g+b < minObjectChannelSum {
				classOf[base+x] = noObject
				continue
			}
			best, bestDist := byte(noObject), objectMatchThreshold*objectMatchThreshold+1
			for k, oc := range objectClasses {
				dr := r - int(oc.color.R)
				dg := g - int(oc.color.G)
				db := b - int(oc.color.B)
				if d := dr*dr + dg*dg + db*db; d < bestDist {
					best, bestDist = byte(k), d
				}
			}
			classOf[base+x] = best
		}
	}
}

// DrawObject renders a class-colored rectangle into a frame, for building
// synthetic object-detection scenes.
func DrawObject(f *frame.Frame, label string, x0, y0, x1, y1 int) bool {
	c, ok := ObjectColor(label)
	if !ok {
		return false
	}
	f.DrawRect(x0, y0, x1, y1, c)
	return true
}
