package frame

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image/jpeg"
	"slices"
	"time"
)

// Codec encodes frames for network transfer. The paper's pipeline encodes
// and decodes images whenever frames cross a device boundary (§3.2); the
// codec's CPU cost and output size drive the baseline-vs-VideoPipe gap, so
// both a real JPEG path and a raw path are provided.
type Codec interface {
	// AppendEncode appends the serialized frame to dst and returns the
	// extended slice, like append: hot paths encode into a per-socket or
	// per-module scratch buffer, growing it only when capacity runs out.
	AppendEncode(dst []byte, f *Frame) ([]byte, error)
	// Decode reconstructs a frame from AppendEncode's output.
	Decode(data []byte) (*Frame, error)
	// Check validates data as far as it can without decoding pixels and
	// returns the frame's header: whatever Decode accepts, Check accepts.
	// A device checks a frame on receipt and decodes it only where its
	// pixels are read (Store.PutEncoded).
	Check(data []byte) (Header, error)
	// Name identifies the codec in configs and metrics.
	Name() string
}

// AppendEncode encodes f with c into dst's spare capacity. The result
// aliases dst whenever capacity allowed, so callers must treat dst as
// consumed.
func AppendEncode(c Codec, dst []byte, f *Frame) ([]byte, error) { return c.AppendEncode(dst, f) }

// Header is what an encoded frame says about itself ahead of its pixels:
// enough to route, order and time the frame without decoding it.
type Header struct {
	Seq           uint64
	Captured      time.Time
	Width, Height int
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

func unmarshalHeader(data []byte) (hdr Header, payload []byte, err error) {
	if len(data) < headerSize {
		return Header{}, nil, fmt.Errorf("frame: truncated header (%d bytes)", len(data))
	}
	hdr = Header{
		Seq:      binary.BigEndian.Uint64(data[0:]),
		Captured: time.Unix(0, int64(binary.BigEndian.Uint64(data[8:]))),
		Width:    int(binary.BigEndian.Uint32(data[16:])),
		Height:   int(binary.BigEndian.Uint32(data[20:])),
	}
	if hdr.Width <= 0 || hdr.Height <= 0 || hdr.Width*hdr.Height > 64<<20 {
		return Header{}, nil, badDimensions(hdr.Width, hdr.Height)
	}
	return hdr, data[headerSize:], nil
}

// JPEGCodec compresses frames to baseline 4:2:0 JPEG, giving realistic
// transfer sizes and encode/decode CPU cost. Both directions are fused
// ports of image/jpeg with no intermediate image (jpegenc.go, jpegdec.go);
// streams and pixels are byte-identical to the standard library's.
type JPEGCodec struct {
	// Quality is the JPEG quality (1-100); zero means jpeg.DefaultQuality.
	Quality int
}

var _ Codec = JPEGCodec{}

// Name identifies the codec.
func (JPEGCodec) Name() string { return "jpeg" }

// AppendEncode serializes the frame header plus JPEG payload into dst's
// spare capacity: appendJPEG appends the stream image/jpeg would write for
// f.ToImage(), so an encode into a warm scratch buffer allocates nothing.
func (c JPEGCodec) AppendEncode(dst []byte, f *Frame) ([]byte, error) {
	q := c.Quality
	if q == 0 {
		q = jpeg.DefaultQuality
	}
	out, err := appendJPEG(appendHeader(dst, f), f.Pix, f.Width, f.Height, q)
	if err != nil {
		return nil, fmt.Errorf("frame: jpeg encode: %w", err)
	}
	return out, nil
}

// Decode reconstructs a frame from a JPEG-encoded payload into a pooled
// buffer owned by the caller. JPEG is lossy: pixel values approximate the
// original. Streams of the shape AppendEncode emits take the fused decoder
// (jpegdec.go); every other JPEG, and every stream the fused decoder gives
// up on, goes through image/jpeg, so what Decode accepts is exactly what
// image/jpeg accepts at the header's dimensions.
func (c JPEGCodec) Decode(data []byte) (*Frame, error) {
	hdr, payload, err := unmarshalHeader(data)
	if err != nil {
		return nil, err
	}
	f, ok := decodeBaseline420(payload, hdr.Width, hdr.Height)
	if !ok {
		if f, err = decodeJPEGStd(payload, hdr.Width, hdr.Height); err != nil {
			return nil, err
		}
	}
	f.Seq = hdr.Seq
	f.Captured = hdr.Captured
	return f, nil
}

// Check walks the frame header and the JPEG marker segments up to the first
// scan (checkJPEGHeaders) without decoding a pixel or allocating.
func (JPEGCodec) Check(data []byte) (Header, error) {
	hdr, payload, err := unmarshalHeader(data)
	if err != nil {
		return Header{}, err
	}
	if err := checkJPEGHeaders(payload, hdr.Width, hdr.Height); err != nil {
		return Header{}, err
	}
	return hdr, nil
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

// AppendEncode concatenates the header and raw pixels into dst's spare
// capacity, growing it at most once.
func (RawCodec) AppendEncode(dst []byte, f *Frame) ([]byte, error) {
	dst = appendHeader(slices.Grow(dst, headerSize+len(f.Pix)), f)
	return append(dst, f.Pix...), nil
}

// Decode reconstructs the frame exactly, into a pooled buffer owned by the
// caller.
func (c RawCodec) Decode(data []byte) (*Frame, error) {
	hdr, err := c.Check(data)
	if err != nil {
		return nil, err
	}
	f := newPooledDirty(hdr.Width, hdr.Height)
	copy(f.Pix, data[headerSize:])
	f.Seq = hdr.Seq
	f.Captured = hdr.Captured
	return f, nil
}

// Check validates the header and that the payload holds exactly the
// header's pixels.
func (RawCodec) Check(data []byte) (Header, error) {
	hdr, payload, err := unmarshalHeader(data)
	if err != nil {
		return Header{}, err
	}
	if want := hdr.Width * hdr.Height * 4; len(payload) != want {
		return Header{}, fmt.Errorf("frame: raw payload is %d bytes, want %d", len(payload), want)
	}
	return hdr, nil
}
