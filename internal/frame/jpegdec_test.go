package frame

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// sceneFrame draws a camera-like image: a two-axis gradient background
// (smooth chroma and luma ramps) with hard-edged shapes on top, so the
// streams carry both long zero runs and busy blocks.
func sceneFrame(w, h int) *Frame {
	f := MustNew(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Set(x, y, color.RGBA{R: uint8(255 * x / w), G: uint8(255 * y / h), B: uint8(128 + 127*(x-y)/(w+h)), A: 255})
		}
	}
	f.DrawRect(w/8, h/8, w/3, h/2, color.RGBA{R: 220, G: 30, B: 30, A: 255})
	f.DrawCircle(w/2, h/3, max(h/6, 1), color.RGBA{R: 240, G: 220, B: 180, A: 255})
	f.DrawLine(w/2, h/3, w/2, 4*h/5, color.RGBA{R: 10, G: 10, B: 10, A: 255})
	f.DrawLine(w/2, h/2, 3*w/4, 2*h/3, color.RGBA{R: 10, G: 200, B: 10, A: 255})
	f.DrawLine(0, h-1, w-1, 0, color.RGBA{R: 255, G: 255, B: 255, A: 255})
	return f
}

// noiseFrame is uniform RGB noise: every block is dense with large
// coefficients, which exercises the long Huffman codes and the IDCT's
// clamping.
func noiseFrame(w, h int, seed int64) *Frame {
	f := MustNew(w, h)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(f.Pix)
	for i := 3; i < len(f.Pix); i += 4 {
		f.Pix[i] = 0xff
	}
	return f
}

// encodePayload returns the bare JPEG stream (no frame header) for f.
func encodePayload(t testing.TB, f *Frame, quality int) []byte {
	t.Helper()
	data, err := JPEGCodec{Quality: quality}.AppendEncode(nil, f)
	if err != nil {
		t.Fatalf("Encode %dx%d q%d: %v", f.Width, f.Height, quality, err)
	}
	return data[headerSize:]
}

// withHeader prefixes a JPEG stream with a frame header claiming w x h.
func withHeader(w, h int, payload []byte) []byte {
	return append(appendHeader(nil, &Frame{Seq: 7, Width: w, Height: h}), payload...)
}

// outstanding is the number of pool buffers handed out and not yet put
// back.
func outstanding() int64 { return Pool.Outstanding() }

func TestJPEGDecodeDifferential(t *testing.T) {
	sizes := [][2]int{{1, 1}, {37, 21}, {64, 48}, {320, 240}, {480, 360}, {640, 480}}
	qualities := []int{1, 50, 75, 100}
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		contents := map[string]*Frame{"scene": sceneFrame(w, h), "noise": noiseFrame(w, h, int64(w*h))}
		for name, src := range contents {
			for _, q := range qualities {
				payload := encodePayload(t, src, q)
				fused, ok := decodeBaseline420(payload, w, h)
				if !ok {
					t.Errorf("%s %dx%d q%d: fused decoder declined the codec's own output", name, w, h, q)
					continue
				}
				ref, err := decodeJPEGStd(payload, w, h)
				if err != nil {
					t.Fatalf("%s %dx%d q%d: stdlib path: %v", name, w, h, q, err)
				}
				if fused.Width != w || fused.Height != h || !bytes.Equal(fused.Pix, ref.Pix) {
					t.Errorf("%s %dx%d q%d: fused pixels differ from jpeg.Decode+FromImage (first at byte %d)",
						name, w, h, q, firstDiff(fused.Pix, ref.Pix))
				}
				fused.Release()
				ref.Release()
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// patchSOF rewrites the frame dimensions inside a stream's SOF0 segment.
func patchSOF(t *testing.T, payload []byte, w, h int) []byte {
	t.Helper()
	i := bytes.Index(payload, []byte{0xff, 0xc0})
	if i < 0 {
		t.Fatal("no SOF0 marker in stream")
	}
	out := bytes.Clone(payload)
	binary.BigEndian.PutUint16(out[i+5:], uint16(h))
	binary.BigEndian.PutUint16(out[i+7:], uint16(w))
	return out
}

// TestJPEGDecodeDimensionMismatch is the decompression-bomb regression: a
// frame header claiming 8x8 in front of a stream whose SOF says
// 65535x65535 must be rejected from the headers alone, on the fused path
// and on the stdlib fallback, without sizing any pixel storage from the
// SOF (jpeg.Decode alone would ask for ~6 GiB).
func TestJPEGDecodeDimensionMismatch(t *testing.T) {
	colour := encodePayload(t, sceneFrame(8, 8), 75)
	var gray bytes.Buffer
	if err := jpeg.Encode(&gray, image.NewGray(image.Rect(0, 0, 8, 8)), nil); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		payload []byte
		w, h    int
	}{
		{"fused shape, huge SOF", patchSOF(t, colour, 65535, 65535), 8, 8},
		{"stdlib shape, huge SOF", patchSOF(t, gray.Bytes(), 65535, 65535), 8, 8},
		{"fused shape, SOF one larger", patchSOF(t, colour, 9, 8), 8, 8},
		{"header larger than SOF", colour, 16, 16},
		{"zero-width SOF", patchSOF(t, colour, 0, 8), 8, 8},
	}
	for _, tc := range cases {
		data := withHeader(tc.w, tc.h, tc.payload)
		held := outstanding()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := JPEGCodec{}.Decode(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			f.Release()
			t.Errorf("%s: Decode accepted mismatched dimensions", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "header says") {
			t.Errorf("%s: error %q does not name the mismatch", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: rejecting the frame allocated %d bytes, want <= 64 KiB", tc.name, grew)
		}
		if now := outstanding(); now != held {
			t.Errorf("%s: %d pool buffers left outstanding", tc.name, now-held)
		}
	}
}

// TestJPEGDecodeFallback checks that valid JPEGs outside the fused shape
// still decode, through the stdlib.
func TestJPEGDecodeFallback(t *testing.T) {
	var gray bytes.Buffer
	img := image.NewGray(image.Rect(0, 0, 20, 12))
	for i := range img.Pix {
		img.Pix[i] = uint8(i)
	}
	if err := jpeg.Encode(&gray, img, nil); err != nil {
		t.Fatal(err)
	}
	colour := encodePayload(t, sceneFrame(20, 12), 75)
	// A JFIF APP0 segment after SOI: harmless, but not something
	// AppendEncode emits.
	jfif := append([]byte{0xff, 0xd8, 0xff, 0xe0, 0, 16, 'J', 'F', 'I', 'F', 0, 1, 1, 0, 0, 1, 0, 1, 0, 0}, colour[2:]...)

	for name, payload := range map[string][]byte{"grayscale": gray.Bytes(), "jfif": jfif} {
		if f, ok := decodeBaseline420(payload, 20, 12); ok {
			f.Release()
			t.Errorf("%s: fused decoder accepted a stream outside its shape", name)
		}
		got, err := JPEGCodec{}.Decode(withHeader(20, 12, payload))
		if err != nil {
			t.Errorf("%s: Decode: %v", name, err)
			continue
		}
		ref, err := decodeJPEGStd(payload, 20, 12)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Pix, ref.Pix) {
			t.Errorf("%s: Decode differs from the stdlib path", name)
		}
		got.Release()
		ref.Release()
	}
}

// fuzzSeeds returns codec output over a few geometries, qualities and
// contents, plus damaged variants of each: truncations (at half length,
// near the end and at each header marker) and single-bit flips in the
// headers and in the scan.
func fuzzSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, sz := range [][2]int{{1, 1}, {37, 21}, {64, 48}} {
		for _, q := range []int{1, 75, 100} {
			for _, src := range []*Frame{sceneFrame(sz[0], sz[1]), noiseFrame(sz[0], sz[1], 1)} {
				p := encodePayload(t, src, q)
				seeds = append(seeds, p, p[:len(p)/2], p[:len(p)-1], p[:len(p)-2])
				for _, cut := range headerCuts(p) { // the cut before EOI is p[:len(p)-2]
					seeds = append(seeds, p[:cut])
				}
				for _, at := range []int{3, 30, 160, 180, 400, len(p) - 40, len(p) - 3} {
					if at >= 0 && at < len(p) {
						flipped := bytes.Clone(p)
						flipped[at] ^= 1 << (at % 8)
						seeds = append(seeds, flipped)
					}
				}
			}
		}
	}
	var gray bytes.Buffer
	if err := jpeg.Encode(&gray, image.NewGray(image.Rect(0, 0, 9, 9)), nil); err != nil {
		t.Fatal(err)
	}
	return append(seeds, gray.Bytes())
}

// FuzzJPEGDecode holds JPEGCodec.Decode to image/jpeg on arbitrary
// payloads: no panic, accept exactly when the stdlib accepts (at the
// dimensions the stdlib reports), identical pixels when it does, and no
// pool buffer left outstanding when it does not. Check, the walk a device
// runs on receipt, must accept whatever Decode accepts, with the header's
// metadata, and must accept AppendEncode's re-encoding of what Decode
// made.
func FuzzJPEGDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		held := outstanding()
		mustReject := func(w, h int, why string) {
			t.Helper()
			if got, err := (JPEGCodec{}).Decode(withHeader(w, h, payload)); err == nil {
				got.Release()
				t.Fatalf("Decode accepted a %dx%d frame but %s", w, h, why)
			}
			if now := outstanding(); now != held {
				t.Fatalf("rejecting a %dx%d frame left %d pool buffers outstanding", w, h, now-held)
			}
		}

		cfg, err := jpeg.DecodeConfig(bytes.NewReader(payload))
		if err != nil {
			mustReject(8, 8, fmt.Sprintf("jpeg.DecodeConfig fails: %v", err))
			return
		}
		w, h := cfg.Width, cfg.Height
		mustReject(w+1, h+1, "the SOF is smaller")
		if w <= 0 || h <= 0 || w*h > 1<<20 {
			return // no header can name it, or too large to decode a reference for
		}
		img, err := jpeg.Decode(bytes.NewReader(payload))
		if err != nil {
			mustReject(w, h, fmt.Sprintf("jpeg.Decode fails: %v", err))
			return
		}
		got, err := JPEGCodec{}.Decode(withHeader(w, h, payload))
		if err != nil {
			t.Fatalf("Decode rejected a stream jpeg.Decode accepts: %v", err)
		}
		checkAccepts := func(data []byte, what string) {
			t.Helper()
			hdr, err := JPEGCodec{}.Check(data)
			if err != nil {
				t.Fatalf("Check rejected %s: %v", what, err)
			}
			if hdr.Seq != got.Seq || hdr.Width != w || hdr.Height != h {
				t.Fatalf("Check read %s as %+v", what, hdr)
			}
		}
		checkAccepts(withHeader(w, h, payload), "a stream Decode accepts")
		reenc, err := JPEGCodec{Quality: 1 + len(payload)%100}.AppendEncode(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		checkAccepts(reenc, "AppendEncode's output")
		want := FromImage(img)
		if got.Width != w || got.Height != h || got.Seq != 7 || !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("Decode differs from jpeg.Decode+FromImage at byte %d", firstDiff(got.Pix, want.Pix))
		}
		got.Release()
		want.Release()
	})
}

var benchFrame *Frame

func BenchmarkJPEGDecode(b *testing.B) {
	for _, sz := range [][2]int{{640, 480}, {480, 360}} {
		w, h := sz[0], sz[1]
		payload := encodePayload(b, sceneFrame(w, h), 85)
		data := withHeader(w, h, payload)
		b.Run(fmt.Sprintf("fused/%dx%d", w, h), func(b *testing.B) {
			b.SetBytes(int64(w * h * 4))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := JPEGCodec{}.Decode(data)
				if err != nil {
					b.Fatal(err)
				}
				benchFrame = f
				f.Release()
			}
		})
		b.Run(fmt.Sprintf("stdlib/%dx%d", w, h), func(b *testing.B) {
			b.SetBytes(int64(w * h * 4))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := decodeJPEGStd(payload, w, h)
				if err != nil {
					b.Fatal(err)
				}
				benchFrame = f
				f.Release()
			}
		})
	}
}
