// Package frame provides VideoPipe's frame subsystem: pixel buffers with
// simple drawing primitives (used to render synthetic camera scenes), a
// JPEG codec for realistic encode/decode cost and wire sizes, and the
// reference-counted frame store that lets modules pass frame *ids* through
// the pipeline instead of copying pixels (paper §3).
package frame

import (
	"fmt"
	"image"
	"image/color"
	"time"
)

// Frame is one video frame: an RGBA pixel buffer plus capture metadata.
type Frame struct {
	// Seq is the source-assigned sequence number.
	Seq uint64
	// Width and Height are the pixel dimensions.
	Width, Height int
	// Pix is the RGBA pixel data, 4 bytes per pixel, row-major.
	Pix []byte
	// Captured is the wall-clock capture time, used for end-to-end latency
	// accounting.
	Captured time.Time

	// pooled marks Pix as drawn from the BufferPool; Release recycles it.
	pooled bool
	// released flips 0->1 on Release (atomically, so concurrent
	// double-release bugs are caught rather than racing).
	released int32
}

func badDimensions(width, height int) error {
	return fmt.Errorf("frame: bad dimensions %dx%d", width, height)
}

// New allocates a black frame of the given dimensions.
func New(width, height int) (*Frame, error) {
	if width <= 0 || height <= 0 || width*height > 64<<20 {
		return nil, badDimensions(width, height)
	}
	return &Frame{
		Width:  width,
		Height: height,
		Pix:    make([]byte, width*height*4),
	}, nil
}

// MustNew is New for dimensions known to be valid; it panics otherwise and
// is intended for tests and fixed-size sources.
func MustNew(width, height int) *Frame {
	f, err := New(width, height)
	if err != nil {
		panic(err)
	}
	return f
}

// Clone deep-copies the frame into a pooled buffer. The caller owns the
// clone and should Release it when done.
func (f *Frame) Clone() *Frame {
	out := &Frame{Seq: f.Seq, Width: f.Width, Height: f.Height, Captured: f.Captured, pooled: true}
	out.Pix = Pool.GetDirty(len(f.Pix))
	copy(out.Pix, f.Pix)
	return out
}

// Size reports the pixel buffer size in bytes.
func (f *Frame) Size() int { return len(f.Pix) }

// inBounds reports whether (x, y) is a valid pixel coordinate.
func (f *Frame) inBounds(x, y int) bool {
	return x >= 0 && x < f.Width && y >= 0 && y < f.Height
}

// Set writes one pixel; out-of-bounds writes are ignored so drawing code
// can clip naturally.
func (f *Frame) Set(x, y int, c color.RGBA) {
	if !f.inBounds(x, y) {
		return
	}
	i := (y*f.Width + x) * 4
	f.Pix[i] = c.R
	f.Pix[i+1] = c.G
	f.Pix[i+2] = c.B
	f.Pix[i+3] = c.A
}

// At reads one pixel; out-of-bounds reads return zero.
func (f *Frame) At(x, y int) color.RGBA {
	if !f.inBounds(x, y) {
		return color.RGBA{}
	}
	i := (y*f.Width + x) * 4
	return color.RGBA{R: f.Pix[i], G: f.Pix[i+1], B: f.Pix[i+2], A: f.Pix[i+3]}
}

// Fill paints the whole frame with one color. The pattern is written once
// and then copy-doubled, which compiles to memmove rather than a per-pixel
// store loop.
func (f *Frame) Fill(c color.RGBA) {
	if len(f.Pix) < 4 {
		return
	}
	f.Pix[0] = c.R
	f.Pix[1] = c.G
	f.Pix[2] = c.B
	f.Pix[3] = c.A
	for filled := 4; filled < len(f.Pix); filled *= 2 {
		copy(f.Pix[filled:], f.Pix[:filled])
	}
}

// DrawRect fills an axis-aligned rectangle, clipped to the frame.
func (f *Frame) DrawRect(x0, y0, x1, y1 int, c color.RGBA) {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			f.Set(x, y, c)
		}
	}
}

// DrawLine draws a 1-pixel line using Bresenham's algorithm.
func (f *Frame) DrawLine(x0, y0, x1, y1 int, c color.RGBA) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx := 1
	if x0 > x1 {
		sx = -1
	}
	sy := 1
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		f.Set(x0, y0, c)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

// DrawCircle fills a disc of the given radius.
func (f *Frame) DrawCircle(cx, cy, r int, c color.RGBA) {
	for y := -r; y <= r; y++ {
		for x := -r; x <= r; x++ {
			if x*x+y*y <= r*r {
				f.Set(cx+x, cy+y, c)
			}
		}
	}
}

// Luma reports the perceptual brightness of the pixel at (x, y) in [0, 255].
func (f *Frame) Luma(x, y int) float64 {
	c := f.At(x, y)
	return 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
}

// MeanLuma reports the average brightness over the whole frame.
func (f *Frame) MeanLuma() float64 {
	if f.Width == 0 || f.Height == 0 {
		return 0
	}
	var sum float64
	for y := 0; y < f.Height; y++ {
		for x := 0; x < f.Width; x++ {
			sum += f.Luma(x, y)
		}
	}
	return sum / float64(f.Width*f.Height)
}

// ToImage wraps the frame as a standard library image sharing the pixel
// buffer.
func (f *Frame) ToImage() *image.RGBA {
	return &image.RGBA{
		Pix:    f.Pix,
		Stride: f.Width * 4,
		Rect:   image.Rect(0, 0, f.Width, f.Height),
	}
}

// FromImage copies an image into a new pooled frame. The two image types
// that actually occur on the hot path — *image.YCbCr from jpeg.Decode and
// *image.RGBA from ToImage round-trips — get direct row conversions,
// striped across the shared worker group; everything else falls back to
// the generic color.Model path.
func FromImage(img image.Image) *Frame {
	b := img.Bounds()
	f := newPooledDirty(b.Dx(), b.Dy()) // every branch below writes every pixel
	switch src := img.(type) {
	case *image.YCbCr:
		Stripes(f.Height, func(lo, hi int) {
			fromYCbCrRows(f, src, b, lo, hi)
		})
	case *image.RGBA:
		Stripes(f.Height, func(lo, hi int) {
			for y := lo; y < hi; y++ {
				srcRow := src.Pix[src.PixOffset(b.Min.X, b.Min.Y+y):]
				copy(f.Pix[y*f.Width*4:(y+1)*f.Width*4], srcRow[:f.Width*4])
			}
		})
	default:
		for y := 0; y < f.Height; y++ {
			for x := 0; x < f.Width; x++ {
				r, g, bb, a := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
				f.Set(x, y, color.RGBA{R: uint8(r >> 8), G: uint8(g >> 8), B: uint8(bb >> 8), A: uint8(a >> 8)})
			}
		}
	}
	return f
}

// fromYCbCrRows converts rows [lo, hi) of a YCbCr image (the jpeg.Decode
// output type) straight into the frame's RGBA buffer, indexing the chroma
// planes directly instead of going through img.At's interface and
// color-model conversions.
func fromYCbCrRows(f *Frame, src *image.YCbCr, b image.Rectangle, lo, hi int) {
	for y := lo; y < hi; y++ {
		sy := b.Min.Y + y
		yRow := src.Y[(sy-src.Rect.Min.Y)*src.YStride:]
		out := f.Pix[y*f.Width*4 : (y+1)*f.Width*4]
		for x := 0; x < f.Width; x++ {
			sx := b.Min.X + x
			ci := src.COffset(sx, sy)
			r, g, bb := color.YCbCrToRGB(yRow[sx-src.Rect.Min.X], src.Cb[ci], src.Cr[ci])
			i := x * 4
			out[i] = r
			out[i+1] = g
			out[i+2] = bb
			out[i+3] = 0xff
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
