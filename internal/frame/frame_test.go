package frame

import (
	"context"
	"fmt"
	"image/color"
	"math"
	"testing"
	"testing/quick"
	"time"
)

var (
	white = color.RGBA{R: 255, G: 255, B: 255, A: 255}
	red   = color.RGBA{R: 255, A: 255}
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 10); err == nil {
		t.Error("New(0, 10) succeeded")
	}
	if _, err := New(10, -1); err == nil {
		t.Error("New(10, -1) succeeded")
	}
	f, err := New(8, 6)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if len(f.Pix) != 8*6*4 {
		t.Errorf("len(Pix) = %d, want %d", len(f.Pix), 8*6*4)
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	f := MustNew(10, 10)
	f.Set(3, 4, red)
	if got := f.ToImage().RGBAAt(3, 4); got != red {
		t.Errorf("At(3,4) = %v, want %v", got, red)
	}
	if got := f.ToImage().RGBAAt(0, 0); got != (color.RGBA{}) {
		t.Errorf("At(0,0) = %v, want zero", got)
	}
}

func TestOutOfBoundsIgnored(t *testing.T) {
	f := MustNew(4, 4)
	f.Set(-1, 0, red)
	f.Set(0, -1, red)
	f.Set(4, 0, red)
	f.Set(0, 4, red)
	if got := f.ToImage().RGBAAt(-1, 0); got != (color.RGBA{}) {
		t.Errorf("out-of-bounds At = %v", got)
	}
	for i, b := range f.Pix {
		if b != 0 {
			t.Fatalf("pixel byte %d modified by out-of-bounds Set", i)
		}
	}
}

func TestClone(t *testing.T) {
	f := MustNew(4, 4)
	f.Seq = 7
	f.Set(1, 1, red)
	c := f.Clone()
	c.Set(1, 1, white)
	if f.ToImage().RGBAAt(1, 1) != red {
		t.Error("Clone shares pixel buffer")
	}
	if c.Seq != 7 {
		t.Errorf("Clone Seq = %d, want 7", c.Seq)
	}
}

// TestFillAndMeanLuma: Fill paints every pixel, so a white frame's mean
// brightness is full and a black one's zero.
func TestFillAndMeanLuma(t *testing.T) {
	f := MustNew(16, 16)
	for _, c := range []color.RGBA{white, {A: 255}} {
		f.Fill(c)
		for i := 0; i < len(f.Pix); i += 4 {
			if got := [4]byte(f.Pix[i:]); got != [4]byte{c.R, c.G, c.B, c.A} {
				t.Fatalf("Fill(%v): pixel %d = %v", c, i/4, got)
			}
		}
	}
}

func TestDrawRectClipped(t *testing.T) {
	f := MustNew(8, 8)
	f.DrawRect(6, 6, 20, 20, white) // partially off-frame
	if f.ToImage().RGBAAt(7, 7) != white {
		t.Error("rect interior not painted")
	}
	if f.ToImage().RGBAAt(5, 5) != (color.RGBA{}) {
		t.Error("rect exterior painted")
	}
	// Reversed corners behave the same.
	g := MustNew(8, 8)
	g.DrawRect(3, 3, 1, 1, white)
	if g.ToImage().RGBAAt(2, 2) != white {
		t.Error("reversed-corner rect not painted")
	}
}

func TestDrawLineEndpoints(t *testing.T) {
	f := MustNew(20, 20)
	f.DrawLine(2, 3, 15, 11, white)
	if f.ToImage().RGBAAt(2, 3) != white || f.ToImage().RGBAAt(15, 11) != white {
		t.Error("line endpoints not painted")
	}
	// Steep and reversed lines.
	f.DrawLine(10, 18, 10, 2, red)
	if f.ToImage().RGBAAt(10, 10) != red {
		t.Error("vertical line not painted")
	}
}

func TestDrawCircle(t *testing.T) {
	f := MustNew(21, 21)
	f.DrawCircle(10, 10, 5, white)
	if f.ToImage().RGBAAt(10, 10) != white {
		t.Error("circle center not painted")
	}
	if f.ToImage().RGBAAt(10, 15) != white {
		t.Error("circle edge not painted")
	}
	if f.ToImage().RGBAAt(10, 16) != (color.RGBA{}) {
		t.Error("outside circle painted")
	}
}

func TestRawCodecRoundTrip(t *testing.T) {
	f := MustNew(32, 24)
	f.Seq = 42
	f.Captured = time.Unix(1700000000, 12345)
	f.DrawCircle(16, 12, 6, red)

	data, err := RawCodec{}.AppendEncode(nil, f)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := RawCodec{}.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Seq != 42 {
		t.Errorf("Seq = %d, want 42", got.Seq)
	}
	if !got.Captured.Equal(f.Captured) {
		t.Errorf("Captured = %v, want %v", got.Captured, f.Captured)
	}
	if got.Width != 32 || got.Height != 24 {
		t.Errorf("dims = %dx%d", got.Width, got.Height)
	}
	for i := range f.Pix {
		if f.Pix[i] != got.Pix[i] {
			t.Fatalf("pixel byte %d differs", i)
		}
	}
}

func TestRawCodecRoundTripProperty(t *testing.T) {
	check := func(seed uint32, w8, h8 uint8) bool {
		w := int(w8%31) + 1
		h := int(h8%31) + 1
		f := MustNew(w, h)
		s := seed
		for i := range f.Pix {
			s = s*1664525 + 1013904223
			f.Pix[i] = byte(s >> 24)
		}
		f.Seq = uint64(seed)
		data, err := RawCodec{}.AppendEncode(nil, f)
		if err != nil {
			return false
		}
		got, err := RawCodec{}.Decode(data)
		if err != nil || got.Seq != f.Seq || got.Width != w || got.Height != h {
			return false
		}
		for i := range f.Pix {
			if f.Pix[i] != got.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestJPEGCodecRoundTrip(t *testing.T) {
	f := MustNew(64, 48)
	f.Fill(color.RGBA{R: 100, G: 150, B: 200, A: 255})
	f.Seq = 9
	data, err := JPEGCodec{Quality: 90}.AppendEncode(nil, f)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(data) >= len(f.Pix) {
		t.Errorf("JPEG output %d bytes >= raw %d; expected compression on a flat image", len(data), len(f.Pix))
	}
	got, err := JPEGCodec{}.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Seq != 9 || got.Width != 64 || got.Height != 48 {
		t.Errorf("metadata = seq %d %dx%d", got.Seq, got.Width, got.Height)
	}
	// Lossy but close on a flat image.
	c := got.ToImage().RGBAAt(32, 24)
	if math.Abs(float64(c.R)-100) > 8 || math.Abs(float64(c.G)-150) > 8 || math.Abs(float64(c.B)-200) > 8 {
		t.Errorf("decoded center pixel %v too far from (100,150,200)", c)
	}
}

func TestCodecDecodeErrors(t *testing.T) {
	codecs := []Codec{RawCodec{}, JPEGCodec{}}
	for _, c := range codecs {
		if _, err := c.Decode(nil); err == nil {
			t.Errorf("%s: Decode(nil) succeeded", c.Name())
		}
		if _, err := c.Decode(make([]byte, 10)); err == nil {
			t.Errorf("%s: Decode(short) succeeded", c.Name())
		}
		if _, err := c.Decode(make([]byte, headerSize+5)); err == nil {
			t.Errorf("%s: Decode(garbage) succeeded", c.Name())
		}
	}
	// Raw with wrong payload length.
	f := MustNew(4, 4)
	data, _ := RawCodec{}.AppendEncode(nil, f)
	if _, err := (RawCodec{}).Decode(data[:len(data)-1]); err == nil {
		t.Error("raw Decode with truncated payload succeeded")
	}
}

func TestCodecNames(t *testing.T) {
	if (JPEGCodec{}).Name() != "jpeg" || (RawCodec{}).Name() != "raw" {
		t.Error("codec names wrong")
	}
}

func TestStorePutGetRelease(t *testing.T) {
	s := NewStore(0)
	f := MustNew(2, 2)
	id, err := s.Put(f)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get(id)
	if err != nil || got != f {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if err := s.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if s.Len() != 0 {
		t.Errorf("Len after release = %d, want 0", s.Len())
	}
	if _, err := s.Get(id); err == nil {
		t.Error("Get after eviction succeeded")
	}
}

func TestStoreRetain(t *testing.T) {
	s := NewStore(0)
	id, _ := s.Put(MustNew(2, 2))
	if err := s.Retain(id); err != nil {
		t.Fatalf("Retain: %v", err)
	}
	s.Release(id)
	if _, err := s.Get(id); err != nil {
		t.Error("frame evicted while references remain")
	}
	s.Release(id)
	if _, err := s.Get(id); err == nil {
		t.Error("frame not evicted at refcount zero")
	}
}

func TestStoreErrors(t *testing.T) {
	s := NewStore(2)
	if _, err := s.Put(nil); err == nil {
		t.Error("Put(nil) succeeded")
	}
	if err := s.Retain(99); err == nil {
		t.Error("Retain(unknown) succeeded")
	}
	if err := s.Release(99); err == nil {
		t.Error("Release(unknown) succeeded")
	}
	s.Put(MustNew(1, 1))
	s.Put(MustNew(1, 1))
	if _, err := s.Put(MustNew(1, 1)); err == nil {
		t.Error("Put over capacity succeeded")
	}
}

// Entries are held by value, so every count change is written back: a
// fan-out's Retains and Releases in any order evict the frame exactly once,
// on the last Release, and never before.
func TestStoreFanOutRefcounts(t *testing.T) {
	s := NewStore(0)
	f, g := MustNewPooled(4, 4), MustNewPooled(4, 4)
	fid, _ := s.Put(f)
	gid, _ := s.Put(g)
	for i := 0; i < 3; i++ { // three more consumers of f: four references
		if err := s.Retain(fid); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave the two frames' releases; g's single reference goes in
	// the middle of f's four.
	for i, id := range []uint64{fid, fid, gid, fid} {
		if err := s.Release(id); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
		if f.Released() {
			t.Fatalf("f evicted after release %d with references left", i)
		}
	}
	if !g.Released() {
		t.Error("g not released when its one reference went")
	}
	if got, err := s.Get(fid); err != nil || got != f {
		t.Fatalf("Get(f) = %v, %v with one reference left", got, err)
	}
	if err := s.Release(fid); err != nil { // the last: evicts, releases once
		t.Fatal(err)
	}
	if !f.Released() || s.Len() != 0 {
		t.Errorf("after the last release: f released %v, %d resident", f.Released(), s.Len())
	}
	// A dead id reads as unknown (a second frame.Release would have
	// panicked).
	for _, c := range []struct {
		err  error
		want string
	}{
		{s.Release(fid), fmt.Sprintf("frame: release of unknown frame id %d", fid)},
		{s.Retain(gid), fmt.Sprintf("frame: retain of unknown frame id %d", gid)},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("err = %v, want %q", c.err, c.want)
		}
	}
	if _, err := s.Get(gid); err == nil || err.Error() != fmt.Sprintf("frame: unknown frame id %d", gid) {
		t.Errorf("Get(dead) err = %v", err)
	}
}

func TestStoreIDsUnique(t *testing.T) {
	s := NewStore(10)
	id1, _ := s.Put(MustNew(1, 1))
	s.Release(id1)
	id2, _ := s.Put(MustNew(1, 1))
	if id1 == id2 {
		t.Error("store reused a frame id; ids must be unique to catch stale references")
	}
}

func TestSourceValidation(t *testing.T) {
	r := SolidRenderer(2, 2, white)
	if _, err := NewSource(0, r); err == nil {
		t.Error("NewSource(0) succeeded")
	}
	if _, err := NewSource(-5, r); err == nil {
		t.Error("NewSource(-5) succeeded")
	}
	if _, err := NewSource(10, nil); err == nil {
		t.Error("NewSource(nil renderer) succeeded")
	}
}

func TestSourcePacingAndDropAccounting(t *testing.T) {
	src, err := NewSource(100, SolidRenderer(2, 2, white))
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()

	var n int
	err = src.Run(ctx, func(f *Frame) bool {
		n++
		return n%2 == 0 // accept every other frame
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := src.Stats()
	if st.Captured < 20 || st.Captured > 35 {
		t.Errorf("Captured = %d over 300ms at 100fps, want ~30", st.Captured)
	}
	if st.Emitted+st.Dropped != st.Captured {
		t.Errorf("Emitted %d + Dropped %d != Captured %d", st.Emitted, st.Dropped, st.Captured)
	}
	if st.Dropped == 0 {
		t.Error("expected drops with alternating credit")
	}
}

func TestSourceSequenceNumbersMonotonic(t *testing.T) {
	src, _ := NewSource(200, SolidRenderer(2, 2, white))
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	var last int64 = -1
	src.Run(ctx, func(f *Frame) bool {
		if int64(f.Seq) <= last {
			t.Errorf("sequence went backwards: %d after %d", f.Seq, last)
		}
		last = int64(f.Seq)
		if f.Captured.IsZero() {
			t.Error("frame missing capture timestamp")
		}
		return true
	})
}

func TestFromImageToImage(t *testing.T) {
	f := MustNew(6, 5)
	f.DrawRect(1, 1, 3, 3, red)
	img := f.ToImage()
	back := FromImage(img)
	if back.Width != 6 || back.Height != 5 {
		t.Fatalf("dims %dx%d", back.Width, back.Height)
	}
	if back.ToImage().RGBAAt(2, 2) != red {
		t.Error("pixel lost in image round trip")
	}
}
