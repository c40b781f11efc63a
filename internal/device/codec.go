package device

import (
	"time"

	"videopipe/internal/frame"
)

// paddedCodec wraps a frame codec so encode/decode take 1/cpuFactor as
// long as they do on the reference machine: a phone-class device pays
// phone-class media costs. The padding is sleep-based, like the service
// compute model.
type paddedCodec struct {
	inner     frame.Codec
	cpuFactor float64
}

var _ frame.Codec = paddedCodec{}

// Name reports the wrapped codec's name.
func (c paddedCodec) Name() string { return c.inner.Name() }

// AppendEncode runs the real encoder into the caller's buffer, then pads to
// the device-scaled duration: copy elision must not dodge the simulated
// media cost.
func (c paddedCodec) AppendEncode(dst []byte, f *frame.Frame) ([]byte, error) {
	start := time.Now()
	out, err := c.inner.AppendEncode(dst, f)
	c.pad(start)
	return out, err
}

// Decode runs the real decoder, then pads to the device-scaled duration.
func (c paddedCodec) Decode(data []byte) (*frame.Frame, error) {
	start := time.Now()
	f, err := c.inner.Decode(data)
	c.pad(start)
	return f, err
}

// Check runs the real header walk, then pads like Decode: it is the part
// of a decode that reads no pixel.
func (c paddedCodec) Check(data []byte) (frame.Header, error) {
	start := time.Now()
	hdr, err := c.inner.Check(data)
	c.pad(start)
	return hdr, err
}

func (c paddedCodec) pad(start time.Time) {
	if c.cpuFactor >= 1 || c.cpuFactor <= 0 {
		return
	}
	elapsed := time.Since(start)
	extra := time.Duration(float64(elapsed)*(1/c.cpuFactor)) - elapsed
	if extra > 0 {
		time.Sleep(extra)
	}
}
