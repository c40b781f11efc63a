package frame

import (
	"bytes"
	"fmt"
	"image/jpeg"
	"testing"
)

// stdlibJPEG is the oracle: what JPEGCodec{Quality: q} wrote when it
// called image/jpeg.
func stdlibJPEG(f *Frame, q int) ([]byte, error) {
	if q == 0 {
		q = jpeg.DefaultQuality
	}
	var buf bytes.Buffer
	err := jpeg.Encode(&buf, f.ToImage(), &jpeg.Options{Quality: q})
	return buf.Bytes(), err
}

// checkEncode holds JPEGCodec{Quality: q}.AppendEncode to the oracle for
// f: the same header and stream byte for byte, appended after what dst
// held, and a stream the fused decoder accepts.
func checkEncode(t *testing.T, name string, f *Frame, q int) {
	t.Helper()
	want, err := stdlibJPEG(f, q)
	if err != nil {
		t.Fatalf("%s q%d: jpeg.Encode: %v", name, q, err)
	}
	prefix := []byte("prefix")
	got, err := JPEGCodec{Quality: q}.AppendEncode(bytes.Clone(prefix), f)
	if err != nil {
		t.Fatalf("%s q%d: AppendEncode: %v", name, q, err)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%s q%d: AppendEncode overwrote dst", name, q)
	}
	got = got[len(prefix):]
	if !bytes.Equal(got[:headerSize], appendHeader(nil, f)) {
		t.Errorf("%s q%d: frame header differs", name, q)
	}
	if stream := got[headerSize:]; !bytes.Equal(stream, want) {
		t.Errorf("%s q%d: stream differs from jpeg.Encode at byte %d (%d vs %d bytes)",
			name, q, firstDiff(stream, want), len(stream), len(want))
		return
	}
	dec, ok := decodeBaseline420(got[headerSize:], f.Width, f.Height)
	if !ok {
		t.Errorf("%s q%d: fused decoder declined the stream", name, q)
		return
	}
	dec.Release()
}

func TestJPEGEncodeDifferential(t *testing.T) {
	sizes := [][2]int{{1, 1}, {7, 9}, {15, 17}, {16, 16}, {37, 21}, {100, 3}, {480, 360}, {640, 480}}
	// 0 is the codec's default (75); -3 and 150 clamp to 1 and 100.
	qualities := []int{0, -3, 1, 10, 49, 50, 85, 100, 150}
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		for name, src := range map[string]*Frame{"scene": sceneFrame(w, h), "noise": noiseFrame(w, h, int64(w+h))} {
			for _, q := range qualities {
				checkEncode(t, fmt.Sprintf("%s %dx%d", name, w, h), src, q)
			}
		}
	}
}

// TestJPEGEncodeTooLarge checks error parity at the SOF0 limit: a
// dimension of 1<<16 fails as it does in image/jpeg, and one less does not.
func TestJPEGEncodeTooLarge(t *testing.T) {
	for _, sz := range [][2]int{{1 << 16, 1}, {1, 1 << 16}} {
		f := MustNew(sz[0], sz[1])
		_, want := stdlibJPEG(f, 75)
		out, err := JPEGCodec{}.AppendEncode(nil, f)
		if want == nil || err == nil || err.Error() != "frame: jpeg encode: "+want.Error() || out != nil {
			t.Errorf("%dx%d: AppendEncode = %d bytes, %v; jpeg.Encode: %v", sz[0], sz[1], len(out), err, want)
		}
	}
	checkEncode(t, "65535x1", noiseFrame(1<<16-1, 1, 1), 75)
}

// FuzzJPEGEncode holds the fused encoder to image/jpeg over arbitrary
// geometry up to 256x256, quality and content: noise when the seed is odd,
// the camera-like scene otherwise.
func FuzzJPEGEncode(f *testing.F) {
	f.Add(uint16(0), uint16(0), 75, int64(1))
	f.Add(uint16(36), uint16(20), 50, int64(2))
	f.Add(uint16(255), uint16(17), 100, int64(3))
	f.Add(uint16(15), uint16(255), -7, int64(4))
	f.Fuzz(func(t *testing.T, w16, h16 uint16, q int, seed int64) {
		w, h := 1+int(w16)%256, 1+int(h16)%256
		src := sceneFrame(w, h)
		if seed&1 != 0 {
			src = noiseFrame(w, h, seed)
		}
		checkEncode(t, fmt.Sprintf("%dx%d seed %d", w, h, seed), src, q)
	})
}

var benchBytes []byte

func BenchmarkJPEGEncode(b *testing.B) {
	for _, sz := range [][2]int{{640, 480}, {480, 360}} {
		w, h := sz[0], sz[1]
		src := sceneFrame(w, h)
		b.Run(fmt.Sprintf("fused/%dx%d", w, h), func(b *testing.B) {
			b.SetBytes(int64(w * h * 4))
			b.ReportAllocs()
			buf, err := JPEGCodec{Quality: 85}.AppendEncode(nil, src)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = (JPEGCodec{Quality: 85}).AppendEncode(buf[:0], src); err != nil {
					b.Fatal(err)
				}
			}
			benchBytes = buf
		})
		b.Run(fmt.Sprintf("stdlib/%dx%d", w, h), func(b *testing.B) {
			b.SetBytes(int64(w * h * 4))
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := jpeg.Encode(&buf, src.ToImage(), &jpeg.Options{Quality: 85}); err != nil {
					b.Fatal(err)
				}
			}
			benchBytes = buf.Bytes()
		})
	}
}
