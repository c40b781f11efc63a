package wire

import (
	"bytes"
	"testing"

	"videopipe/internal/frame"
)

// assertAllocs pins a steady-state allocation count. Under -race the
// bound is logged, not enforced (instrumentation skews the counts), but
// the loops still run so races are caught.
func assertAllocs(t *testing.T, what string, got, want float64) {
	t.Helper()
	if raceEnabled {
		t.Logf("%s: %.1f allocs/op (bound %.0f not enforced under -race)", what, got, want)
		return
	}
	if got > want {
		t.Errorf("%s: %.1f allocs/op, want <= %.0f", what, got, want)
	}
}

func TestMessageRoundTripAllocs(t *testing.T) {
	m := StringMessage("service", `{"x":1}`, "0123456789abcdef0123456789abcdef")

	// Steady-state encode into a reused scratch buffer is copy-only.
	var scratch []byte
	encode := testing.AllocsPerRun(200, func() {
		var err error
		scratch, err = m.EncodeTo(scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	assertAllocs(t, "EncodeTo into scratch", encode, 0)

	// A full round trip through the owning reader (exported ReadMessage,
	// RPC) adds the receiver's message: the 4-byte prefix scratch
	// (it escapes through the io.Reader), one body buffer, one parts slice
	// (part payloads borrow the body buffer).
	rd := bytes.NewReader(nil)
	readBack := func(pooled bool) Message {
		scratch, _ = m.EncodeTo(scratch[:0])
		rd.Reset(scratch)
		got, err := readMessage(rd, pooled)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != m.Len() {
			t.Fatalf("round trip lost parts: %d != %d", got.Len(), m.Len())
		}
		return got
	}
	owning := testing.AllocsPerRun(200, func() { readBack(false) })
	assertAllocs(t, "EncodeTo+ReadMessage round trip", owning, 3)

	// The PULL socket's reader borrows the body from frame.Pool and the
	// receiver hands it back, which leaves the prefix scratch and the parts
	// slice: two small objects, whatever the body's size.
	pooled := testing.AllocsPerRun(200, func() {
		got := readBack(true)
		got.Release()
		if got.Parts != nil {
			t.Fatal("Release left the parts readable")
		}
	})
	assertAllocs(t, "EncodeTo+pooled read+Release round trip", pooled, 2)
}

// A length prefix is a claim, not data: whatever it says, a read that does
// not complete must leave nothing behind in the pool.
func TestBufferPoolHostilePrefix(t *testing.T) {
	cases := map[string][]byte{
		"64 MiB prefix then EOF":    {0x04, 0, 0, 0},
		"1 MiB prefix then EOF":     {0, 0x10, 0, 0},
		"1 MiB prefix, 3 bytes":     {0, 0x10, 0, 0, 1, 2, 3},
		"over MaxMessageSize":       {0x04, 0, 0, 1},
		"whole body, corrupt parts": {0, 0, 0, 4, 1, 1, 'x', 'y'},
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			retained := frame.Pool.Retained()
			hits, misses := frame.Pool.Stats()
			if _, err := readMessage(bytes.NewReader(raw), true); err == nil {
				t.Fatal("accepted")
			}
			// (Less is fine: the failed read may have drawn a free buffer
			// and dropped it.)
			if got := frame.Pool.Retained(); got > retained {
				t.Errorf("pool retains %d B more than before the failed read", got-retained)
			}
			if name == "over MaxMessageSize" {
				if h, m := frame.Pool.Stats(); h != hits || m != misses {
					t.Error("a buffer was drawn before the size check")
				}
			}
		})
	}
}
