package frame

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image/jpeg"
	"time"
)

// Codec encodes frames for network transfer. The paper's pipeline encodes
// and decodes images whenever frames cross a device boundary (§3.2); the
// codec's CPU cost and output size drive the baseline-vs-VideoPipe gap, so
// both a real JPEG path and a raw path are provided.
type Codec interface {
	// Encode serializes a frame.
	Encode(f *Frame) ([]byte, error)
	// Decode reconstructs a frame from Encode's output.
	Decode(data []byte) (*Frame, error)
	// Name identifies the codec in configs and metrics.
	Name() string
}

// AppendEncoder is the copy-eliding side of Codec: encode into the caller's
// buffer (growing it only when capacity runs out) instead of allocating a
// fresh slice per frame. Hot paths that reuse a per-socket or per-module
// scratch buffer should type-assert for it via AppendEncode.
type AppendEncoder interface {
	// AppendEncode appends the encoded frame to dst and returns the
	// extended slice, like append.
	AppendEncode(dst []byte, f *Frame) ([]byte, error)
}

// AppendEncode encodes f into dst's spare capacity when the codec supports
// it, falling back to Encode plus append otherwise. The result aliases dst
// whenever capacity allowed, so callers must treat dst as consumed.
func AppendEncode(c Codec, dst []byte, f *Frame) ([]byte, error) {
	if ae, ok := c.(AppendEncoder); ok {
		return ae.AppendEncode(dst, f)
	}
	data, err := c.Encode(f)
	if err != nil {
		return nil, err
	}
	return append(dst, data...), nil
}

// header layout shared by both codecs:
// [8 seq][8 capturedUnixNano][4 width][4 height][payload...]
const headerSize = 8 + 8 + 4 + 4

func appendHeader(dst []byte, f *Frame) []byte {
	var buf [headerSize]byte
	binary.BigEndian.PutUint64(buf[0:], f.Seq)
	binary.BigEndian.PutUint64(buf[8:], uint64(f.Captured.UnixNano()))
	binary.BigEndian.PutUint32(buf[16:], uint32(f.Width))
	binary.BigEndian.PutUint32(buf[20:], uint32(f.Height))
	return append(dst, buf[:]...)
}

func unmarshalHeader(data []byte) (seq uint64, captured time.Time, w, h int, payload []byte, err error) {
	if len(data) < headerSize {
		return 0, time.Time{}, 0, 0, nil, fmt.Errorf("frame: truncated header (%d bytes)", len(data))
	}
	seq = binary.BigEndian.Uint64(data[0:])
	captured = time.Unix(0, int64(binary.BigEndian.Uint64(data[8:])))
	w = int(binary.BigEndian.Uint32(data[16:]))
	h = int(binary.BigEndian.Uint32(data[20:]))
	if w <= 0 || h <= 0 || w*h > 64<<20 {
		return 0, time.Time{}, 0, 0, nil, fmt.Errorf("frame: bad dimensions %dx%d", w, h)
	}
	return seq, captured, w, h, data[headerSize:], nil
}

// JPEGCodec compresses frames with the standard library JPEG encoder,
// giving realistic transfer sizes and encode/decode CPU cost.
type JPEGCodec struct {
	// Quality is the JPEG quality (1-100); zero means jpeg.DefaultQuality.
	Quality int
}

var _ Codec = JPEGCodec{}

// Name identifies the codec.
func (JPEGCodec) Name() string { return "jpeg" }

// Encode serializes the frame header plus JPEG payload.
func (c JPEGCodec) Encode(f *Frame) ([]byte, error) {
	return c.AppendEncode(nil, f)
}

// AppendEncode serializes into dst's spare capacity; the JPEG encoder
// writes through a thin append adapter so a warm scratch buffer makes the
// whole encode allocation-free apart from the encoder's own state.
func (c JPEGCodec) AppendEncode(dst []byte, f *Frame) ([]byte, error) {
	q := c.Quality
	if q == 0 {
		q = jpeg.DefaultQuality
	}
	w := appendWriter{buf: appendHeader(dst, f), tmp: Pool.GetDirty(stageSize)}
	err := jpeg.Encode(&w, f.ToImage(), &jpeg.Options{Quality: q})
	Pool.Put(w.tmp)
	if err != nil {
		return nil, fmt.Errorf("frame: jpeg encode: %w", err)
	}
	return w.buf, nil
}

// appendWriter adapts append-style buffer growth to the stdlib JPEG
// encoder. It implements Flush and WriteByte alongside Write so
// jpeg.Encode uses it directly instead of wrapping it in a fresh
// bufio.Writer per call. Bytes stage through tmp first: appending straight
// to buf would pay a bounds check and a slice-header write barrier on every
// WriteByte in the encoder's bit-emit loop. The writer escapes into
// jpeg.Encode's io.Writer, so tmp is borrowed from the pool for the call
// rather than embedded as an array the heap would pay for on every encode.
type appendWriter struct {
	buf []byte
	n   int
	tmp []byte
}

const stageSize = 2048

func (w *appendWriter) flushTmp() {
	w.buf = append(w.buf, w.tmp[:w.n]...)
	w.n = 0
}

func (w *appendWriter) Write(p []byte) (int, error) {
	if w.n > 0 {
		w.flushTmp()
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *appendWriter) WriteByte(c byte) error {
	if w.n == len(w.tmp) {
		w.flushTmp()
	}
	w.tmp[w.n] = c
	w.n++
	return nil
}

func (w *appendWriter) Flush() error {
	if w.n > 0 {
		w.flushTmp()
	}
	return nil
}

// Decode reconstructs a frame from a JPEG-encoded payload into a pooled
// buffer owned by the caller. JPEG is lossy: pixel values approximate the
// original. Streams of the shape AppendEncode emits take the fused decoder
// (jpegdec.go); every other JPEG, and every stream the fused decoder gives
// up on, goes through image/jpeg, so what Decode accepts is exactly what
// image/jpeg accepts at the header's dimensions.
func (c JPEGCodec) Decode(data []byte) (*Frame, error) {
	seq, captured, w, h, payload, err := unmarshalHeader(data)
	if err != nil {
		return nil, err
	}
	f, ok := decodeBaseline420(payload, w, h)
	if !ok {
		if f, err = decodeJPEGStd(payload, w, h); err != nil {
			return nil, err
		}
	}
	f.Seq = seq
	f.Captured = captured
	return f, nil
}

// decodeJPEGStd is the general decode path: image/jpeg into its own image
// type, then a copy into a pooled frame. The SOF dimensions are checked
// against the frame header before jpeg.Decode sizes its planes from them,
// so an 8x8 header cannot front for a 65535x65535 payload.
func decodeJPEGStd(payload []byte, w, h int) (*Frame, error) {
	cfg, err := jpeg.DecodeConfig(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("frame: jpeg decode: %w", err)
	}
	if cfg.Width != w || cfg.Height != h {
		return nil, fmt.Errorf("frame: header says %dx%d but payload is %dx%d", w, h, cfg.Width, cfg.Height)
	}
	img, err := jpeg.Decode(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("frame: jpeg decode: %w", err)
	}
	return FromImage(img), nil
}

// RawCodec serializes pixels verbatim: lossless, zero compression cost,
// maximal size. It is the ablation point for "what if we didn't compress".
type RawCodec struct{}

var _ Codec = RawCodec{}

// Name identifies the codec.
func (RawCodec) Name() string { return "raw" }

// Encode concatenates the header and raw pixels.
func (c RawCodec) Encode(f *Frame) ([]byte, error) {
	return c.AppendEncode(make([]byte, 0, headerSize+len(f.Pix)), f)
}

// AppendEncode concatenates the header and raw pixels into dst's spare
// capacity.
func (RawCodec) AppendEncode(dst []byte, f *Frame) ([]byte, error) {
	dst = appendHeader(dst, f)
	return append(dst, f.Pix...), nil
}

// Decode reconstructs the frame exactly, into a pooled buffer owned by the
// caller.
func (RawCodec) Decode(data []byte) (*Frame, error) {
	seq, captured, w, h, payload, err := unmarshalHeader(data)
	if err != nil {
		return nil, err
	}
	if len(payload) != w*h*4 {
		return nil, fmt.Errorf("frame: raw payload is %d bytes, want %d", len(payload), w*h*4)
	}
	f := newPooledDirty(w, h)
	copy(f.Pix, payload)
	f.Seq = seq
	f.Captured = captured
	return f, nil
}
