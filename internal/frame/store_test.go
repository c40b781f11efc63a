package frame

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingCodec is JPEGCodec with its decodes counted, and failing when
// failDecode is set: its Check still passes, so the failure only shows
// where the pixels are read.
type countingCodec struct {
	JPEGCodec
	decodes    *atomic.Int64
	failDecode bool
}

func (c countingCodec) Decode(data []byte) (*Frame, error) {
	c.decodes.Add(1)
	if c.failDecode {
		return nil, errors.New("corrupt scan")
	}
	return c.JPEGCodec.Decode(data)
}

func encodedScene(t testing.TB, w, h int) []byte {
	t.Helper()
	f := sceneFrame(w, h)
	f.Seq, f.Captured = 41, time.Unix(0, 1_700_000_000_123_456_789)
	data, err := JPEGCodec{Quality: 85}.AppendEncode(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// An entry put encoded keeps a copy of its bytes and its header, decodes
// once on the first Get, and gives both buffers back on eviction.
func TestStoreEncodedEntry(t *testing.T) {
	held := outstanding()
	var decodes atomic.Int64
	c := countingCodec{decodes: &decodes}
	s := NewStore(0)
	data := encodedScene(t, 64, 48)
	id, err := s.PutEncoded(data, c)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := s.Encoding(id)
	if err != nil || !bytes.Equal(enc, data) || &enc[0] == &data[0] {
		t.Fatalf("Encoding = %d bytes (same as put: %v, aliased: %v), %v", len(enc), bytes.Equal(enc, data), &enc[0] == &data[0], err)
	}
	hdr, err := s.Header(id)
	if err != nil || hdr.Seq != 41 || !hdr.Captured.Equal(time.Unix(0, 1_700_000_000_123_456_789)) || hdr.Width != 64 || hdr.Height != 48 {
		t.Fatalf("Header = %+v, %v", hdr, err)
	}
	if decodes.Load() != 0 {
		t.Fatalf("%d decodes before any Get", decodes.Load())
	}
	f, err := s.Get(id)
	if err != nil || f.Seq != 41 || f.Width != 64 {
		t.Fatalf("Get = %+v, %v", f, err)
	}
	if g, _ := s.Get(id); g != f || decodes.Load() != 1 {
		t.Errorf("second Get: same frame %v, %d decodes; want the first's, 1", g == f, decodes.Load())
	}
	if enc, _ := s.Encoding(id); !bytes.Equal(enc, data) {
		t.Error("a decode changed the entry's bytes")
	}
	s.Release(id)
	if !f.Released() || s.Len() != 0 {
		t.Errorf("after release: frame released %v, %d resident", f.Released(), s.Len())
	}
	if now := outstanding(); now != held {
		t.Errorf("%d pool buffers outstanding after eviction", now-held)
	}

	// A frame put decoded has a header and no bytes.
	id, _ = s.Put(&Frame{Seq: 3, Width: 2, Height: 1, Captured: time.Unix(5, 0)})
	if hdr, _ := s.Header(id); hdr.Seq != 3 || hdr.Width != 2 || !hdr.Captured.Equal(time.Unix(5, 0)) {
		t.Errorf("Header of a decoded put = %+v", hdr)
	}
	if enc, err := s.Encoding(id); enc != nil || err != nil {
		t.Errorf("Encoding of a decoded put = %d bytes, %v", len(enc), err)
	}
	s.Release(id)
	for _, err := range []error{firstErr(s.Header(id)), firstErr(s.Encoding(id))} {
		if err == nil {
			t.Error("a dead id's header or bytes were returned")
		}
	}
}

func firstErr[T any](_ T, err error) error { return err }

// Gets racing on one entry share one decode; a decode that fails fails
// every Get of the entry without decoding again, and the entry still
// gives its bytes back.
func TestStoreDecodesOnce(t *testing.T) {
	held := outstanding()
	for _, fail := range []bool{false, true} {
		var decodes atomic.Int64
		s := NewStore(0)
		id, err := s.PutEncoded(encodedScene(t, 64, 48), countingCodec{decodes: &decodes, failDecode: fail})
		if err != nil {
			t.Fatal(err)
		}
		frames := make([]*Frame, 8)
		errs := make([]error, 8)
		var wg sync.WaitGroup
		for i := range frames {
			wg.Add(1)
			go func() {
				defer wg.Done()
				frames[i], errs[i] = s.Get(id)
			}()
		}
		wg.Wait()
		if decodes.Load() != 1 {
			t.Errorf("fail=%v: %d decodes for 8 Gets, want 1", fail, decodes.Load())
		}
		for i := range frames {
			if fail && (errs[i] == nil || !strings.Contains(errs[i].Error(), "corrupt scan")) {
				t.Errorf("Get %d after a failed decode: %v", i, errs[i])
			}
			if !fail && (errs[i] != nil || frames[i] != frames[0]) {
				t.Errorf("Get %d: %v, same frame %v", i, errs[i], frames[i] == frames[0])
			}
		}
		s.Release(id)
	}
	if now := outstanding(); now != held {
		t.Errorf("%d pool buffers outstanding", now-held)
	}
}

// A payload Check refuses, or one the store has no room for, leaves no
// entry and no buffer behind.
func TestStorePutEncodedRefusals(t *testing.T) {
	held := outstanding()
	s := NewStore(1)
	data := encodedScene(t, 64, 48)
	if _, err := s.PutEncoded(data[:len(data)/2], JPEGCodec{}); err != nil {
		t.Fatalf("a stream cut in its scan failed Check: %v", err)
	} // Check reads no scan: this one is the entry that fills the store
	if _, err := s.PutEncoded(data, JPEGCodec{}); err == nil || !strings.Contains(err.Error(), "store full") {
		t.Errorf("PutEncoded into a full store: %v", err)
	}
	if _, err := s.PutEncoded(data[:headerSize+30], RawCodec{}); err == nil {
		t.Error("raw Check accepted a JPEG")
	}
	if s.Len() != 1 || outstanding() != held+1 {
		t.Errorf("%d resident, %d buffers out; want 1, 1", s.Len(), outstanding()-held)
	}
	id := s.nextID
	if _, err := s.Get(id); err == nil {
		t.Error("the cut stream decoded")
	}
	s.Release(id)
	if now := outstanding(); now != held {
		t.Errorf("%d pool buffers outstanding", now-held)
	}
}

// Check accepts what the codecs emit and reports their header; it refuses
// a short header, bad dimensions, a raw payload of the wrong length and a
// JPEG whose SOF disagrees with the header or that ends before its scan.
func TestCodecCheck(t *testing.T) {
	src := sceneFrame(37, 21)
	src.Seq, src.Captured = 9, time.Unix(0, 77)
	for _, c := range []Codec{RawCodec{}, JPEGCodec{Quality: 60}} {
		data, err := c.AppendEncode(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := c.Check(data)
		if err != nil || hdr != (Header{Seq: 9, Captured: time.Unix(0, 77), Width: 37, Height: 21}) {
			t.Errorf("%s: Check = %+v, %v", c.Name(), hdr, err)
		}
		for _, bad := range [][]byte{nil, data[:headerSize-1], append(withHeader(0, 21, nil), data[headerSize:]...)} {
			if _, err := c.Check(bad); err == nil {
				t.Errorf("%s: Check accepted %d bytes", c.Name(), len(bad))
			}
		}
	}
	raw, _ := RawCodec{}.AppendEncode(nil, src)
	if _, err := (RawCodec{}).Check(raw[:len(raw)-1]); err == nil {
		t.Error("raw Check accepted a short payload")
	}
	payload := encodePayload(t, src, 60)
	if _, err := (JPEGCodec{}).Check(withHeader(38, 21, payload)); err == nil || !strings.Contains(err.Error(), "header says 38x21 but payload is 37x21") {
		t.Errorf("JPEG Check of a mismatched SOF: %v", err)
	}
	for _, cut := range headerCuts(payload) {
		if _, err := (JPEGCodec{}).Check(withHeader(37, 21, payload[:cut])); err == nil {
			t.Errorf("JPEG Check accepted the stream cut at marker offset %d", cut)
		}
	}
}

// headerCuts returns the offset of every marker segment of a stream up to
// and including its first SOS: the streams truncated there end just before
// a header segment.
func headerCuts(p []byte) []int {
	var cuts []int
	pos := 2
	for pos+4 <= len(p) && p[pos] == 0xff {
		cuts = append(cuts, pos)
		if p[pos+1] == jpegSOS {
			break
		}
		pos += 2 + (int(p[pos+2])<<8 | int(p[pos+3]))
	}
	return cuts
}
