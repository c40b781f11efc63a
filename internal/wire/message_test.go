package wire

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeMessageBuf(&buf, m, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	return got
}

func messagesEqual(a, b Message) bool {
	if len(a.Parts) != len(b.Parts) {
		return false
	}
	for i := range a.Parts {
		if !bytes.Equal(a.Parts[i], b.Parts[i]) {
			return false
		}
	}
	return true
}

func TestMessageRoundTrip(t *testing.T) {
	cases := []Message{
		{},
		NewMessage(),
		NewMessage([]byte("a")),
		NewMessage([]byte("a"), []byte("bb"), []byte("ccc")),
		NewMessage(nil, []byte{}, []byte("x")),
		NewMessage([]byte("frame"), []byte("42"), []byte("payload")),
		NewMessage(bytes.Repeat([]byte{0xAB}, 100_000)),
	}
	for i, m := range cases {
		got := roundTrip(t, m)
		if !messagesEqual(got, m) {
			t.Errorf("case %d: round trip mismatch: got %d parts, want %d", i, got.Len(), m.Len())
		}
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	check := func(parts [][]byte) bool {
		m := Message{Parts: parts}
		var buf bytes.Buffer
		if _, err := writeMessageBuf(&buf, m, nil); err != nil {
			return false
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			return false
		}
		return messagesEqual(got, m)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMessageAccessors(t *testing.T) {
	m := NewMessage([]byte("a"), []byte("b"))
	if m.Len() != 2 {
		t.Errorf("Len() = %d, want 2", m.Len())
	}
	if m.Size() != 2 {
		t.Errorf("Size() = %d, want 2", m.Size())
	}
	if m.StringPart(0) != "a" || m.StringPart(1) != "b" {
		t.Errorf("StringPart mismatch: %q %q", m.StringPart(0), m.StringPart(1))
	}
	if m.Part(-1) != nil || m.Part(2) != nil {
		t.Error("out-of-range Part should be nil")
	}
	if m.StringPart(5) != "" {
		t.Error("out-of-range StringPart should be empty")
	}
}

func TestMessageTooLarge(t *testing.T) {
	m := NewMessage(make([]byte, MaxMessageSize+1))
	var buf bytes.Buffer
	if _, err := writeMessageBuf(&buf, m, nil); err == nil {
		t.Error("write accepted oversized message")
	}
}

func TestReadMessageRejectsHugeHeader(t *testing.T) {
	buf := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadMessage(bytes.NewReader(buf)); err == nil {
		t.Error("ReadMessage accepted oversized length prefix")
	}
}

func TestReadMessageCorruptBodies(t *testing.T) {
	cases := [][]byte{
		{0, 0, 0, 1, 0x80},             // truncated uvarint part count
		{0, 0, 0, 2, 1, 0x80},          // truncated part length
		{0, 0, 0, 3, 1, 5, 'x'},        // part overruns body
		{0, 0, 0, 3, 1, 1, 'x'},        // exact: should pass — see below
		{0, 0, 0, 4, 1, 1, 'x', 'y'},   // trailing bytes
		{0, 0, 0, 5, 0xFF, 1, 2, 3, 4}, // implausible part count
	}
	for i, raw := range cases {
		_, err := ReadMessage(bytes.NewReader(raw))
		if i == 3 {
			if err != nil {
				t.Errorf("case %d: valid message rejected: %v", i, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("case %d: corrupt message accepted", i)
		}
	}
}

func TestReadMessageEOF(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("ReadMessage(empty) = %v, want io.EOF", err)
	}
	// Partial header is an error but not clean EOF.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0})); err == nil || err == io.EOF {
		t.Errorf("ReadMessage(partial header) = %v, want wrapped error", err)
	}
}

func TestMultipleMessagesOnStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if _, err := writeMessageBuf(&buf, NewMessage([]byte("msg"), []byte(string(rune('a'+i)))), nil); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i := 0; i < 5; i++ {
		m, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("ReadMessage %d: %v", i, err)
		}
		if m.StringPart(1) != string(rune('a'+i)) {
			t.Errorf("message %d out of order: %q", i, m.StringPart(1))
		}
	}
	if _, err := ReadMessage(&buf); err != io.EOF {
		t.Errorf("after stream drained: %v, want io.EOF", err)
	}
}

func TestEndpointParseValid(t *testing.T) {
	cases := []struct {
		in   string
		want Endpoint
	}{
		{"bind#tcp://*:5861", Endpoint{Mode: Bind, Proto: "tcp", Host: "*", Port: 5861}},
		{"connect#tcp://desktop:5861", Endpoint{Mode: Connect, Proto: "tcp", Host: "desktop", Port: 5861}},
		{"bind#tcp://phone:0", Endpoint{Mode: Bind, Proto: "tcp", Host: "phone", Port: 0}},
	}
	for _, c := range cases {
		got, err := ParseEndpoint(c.in)
		if err != nil {
			t.Errorf("ParseEndpoint(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseEndpoint(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestEndpointParseInvalid(t *testing.T) {
	cases := []string{
		"",
		"tcp://desktop:5861",          // missing mode
		"listen#tcp://desktop:5861",   // unknown mode
		"bind#udp://desktop:5861",     // unsupported proto
		"bind#tcp://desktop",          // missing port
		"bind#tcp://desktop:notaport", // bad port
		"bind#tcp://desktop:99999",    // port out of range
		"bind#tcp://:5861",            // empty host
		"connect#tcp://*:5861",        // wildcard needs bind
		"bind#tcpdesktop:5861",        // missing ://
	}
	for _, in := range cases {
		if _, err := ParseEndpoint(in); err == nil {
			t.Errorf("ParseEndpoint(%q) succeeded, want error", in)
		}
	}
}

func TestEndpointStringRoundTrip(t *testing.T) {
	for _, s := range []string{"bind#tcp://*:5861", "connect#tcp://desktop:1234"} {
		e, err := ParseEndpoint(s)
		if err != nil {
			t.Fatalf("ParseEndpoint(%q): %v", s, err)
		}
		if e.String() != s {
			t.Errorf("String() = %q, want %q", e.String(), s)
		}
	}
}
