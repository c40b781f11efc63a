// Package wire is VideoPipe's messaging layer, a from-scratch substitute for
// ZeroMQ built on the standard library.
//
// It provides brokerless, asynchronous, multipart message transfer between
// pipeline components, replicating the ZeroMQ facilities the paper relies on
// (§3.2): endpoint strings in the Listing-1 grammar ("bind#tcp://*:5861",
// "connect#tcp://desktop:5861"), length-prefixed multipart framing, and two
// socket patterns — PUSH/PULL one-way sockets for the module data path and a
// multiplexed caller/responder pair (DEALER/ROUTER-style) for service calls.
// There is no broker hop: the paper's argument against Kafka/RabbitMQ-style
// brokers is that the extra forwarding hop adds delay.
//
// Both patterns run on one connection lifecycle (conn.go). Push and Caller
// dial on first use and redial after a failure with one backoff; their
// Close disconnects and joins nothing (a Caller's read loop ends with its
// connection). Pull and Responder track every connection they accept;
// their Close stops accepting, disconnects every peer and returns once the
// accept loop, every per-connection loop and every in-flight handler exited.
//
// The layer is transport-agnostic: it runs over real TCP or over the
// netsim package's shaped in-memory fabric via the Transport interface.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"videopipe/internal/frame"
)

// bytesCopied counts payload bytes the wire layer copies (encode and
// Clone). With scratch-buffer encoding and borrow-not-clone delivery the
// steady state is exactly one copy per message — into the socket write
// buffer — so this counter growing faster than the send rate times message
// size flags a copy regression. Surfaced by vpbench as wire.bytes_copied.
var bytesCopied atomic.Uint64

// BytesCopied reports the cumulative wire.bytes_copied counter.
func BytesCopied() uint64 { return bytesCopied.Load() }

// MaxMessageSize bounds a single encoded message, protecting receivers from
// hostile or corrupt length prefixes. Video frames at home resolutions fit
// comfortably.
const MaxMessageSize = 64 << 20

// Message is a multipart message, the unit of transfer. Parts are opaque
// byte slices; by convention the first part carries routing or type
// information and later parts carry payloads.
type Message struct {
	Parts [][]byte
	// body is the frame.Pool buffer Parts borrow from, set only on messages
	// a Pull socket read; Release hands it back.
	body []byte
}

// NewMessage builds a message from the given parts. The slices are used
// directly; callers must not mutate them after sending.
func NewMessage(parts ...[]byte) Message { return Message{Parts: parts} }

// StringMessage builds a message whose parts are the given strings.
func StringMessage(parts ...string) Message {
	m := Message{Parts: make([][]byte, len(parts))}
	for i, p := range parts {
		m.Parts[i] = []byte(p)
	}
	return m
}

// Part returns part i, or nil when out of range.
func (m Message) Part(i int) []byte {
	if i < 0 || i >= len(m.Parts) {
		return nil
	}
	return m.Parts[i]
}

// StringPart returns part i as a string, or "" when out of range.
func (m Message) StringPart(i int) string { return string(m.Part(i)) }

// Len reports the number of parts.
func (m Message) Len() int { return len(m.Parts) }

// Size reports the total payload bytes across all parts.
func (m Message) Size() int {
	n := 0
	for _, p := range m.Parts {
		n += len(p)
	}
	return n
}

// Release ends the receiver's use of a message: the parts become invalid
// and, for a message from Pull.Recv, the body buffer they borrow goes back
// to frame.Pool for the next receive. Call it only once nothing reads the
// parts any more — a consumer that keeps parts (or copies of the Message)
// must not call it. Release is optional: an unreleased message is simply
// collected, as an unreleased frame is.
func (m *Message) Release() {
	frame.Pool.Put(m.body)
	*m = Message{}
}

// Clone deep-copies the message so the original buffers can be reused.
// Hot paths should prefer borrowing (see Pull.Recv and the RPC handoffs) —
// Clone exists for consumers that must outlive the producer's buffer.
func (m Message) Clone() Message {
	out := Message{Parts: make([][]byte, len(m.Parts))}
	for i, p := range m.Parts {
		c := make([]byte, len(p))
		copy(c, p)
		out.Parts[i] = c
	}
	bytesCopied.Add(uint64(m.Size()))
	return out
}

// errMessageTooLarge reports an encoded message exceeding MaxMessageSize.
var errMessageTooLarge = errors.New("wire: message exceeds size limit")

// encodedSize reports the on-wire size of the message body (excluding the
// 4-byte outer length prefix).
func (m Message) encodedSize() int {
	n := uvarintLen(uint64(len(m.Parts)))
	for _, p := range m.Parts {
		n += uvarintLen(uint64(len(p))) + len(p)
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// EncodeTo appends m's complete wire record to dst and returns the
// extended slice, reusing dst's capacity when it suffices:
//
//	[4-byte big-endian body length][uvarint part count]{[uvarint len][bytes]}*
//
// Sockets call it with a per-socket scratch buffer (under their write
// mutex), so steady-state sends encode with zero allocations.
func (m Message) EncodeTo(dst []byte) ([]byte, error) {
	body := m.encodedSize()
	if body > MaxMessageSize {
		return dst, errMessageTooLarge
	}
	if need := len(dst) + 4 + body; cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = binary.AppendUvarint(dst, uint64(len(m.Parts)))
	for _, p := range m.Parts {
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		dst = append(dst, p...)
	}
	bytesCopied.Add(uint64(m.Size()))
	return dst, nil
}

// WriteMessage encodes m to w as a single length-prefixed record,
// allocating a fresh buffer. Hot paths use writeMessageBuf with a reusable
// scratch buffer instead.
func WriteMessage(w io.Writer, m Message) error {
	_, err := writeMessageBuf(w, m, nil)
	return err
}

// writeMessageBuf encodes m into scratch's spare capacity and writes the
// record as a single Write call. It returns the (possibly regrown) scratch
// for the next send; the caller must serialize calls per writer.
func writeMessageBuf(w io.Writer, m Message, scratch []byte) ([]byte, error) {
	buf, err := m.EncodeTo(scratch[:0])
	if err != nil {
		return scratch, err
	}
	if _, err := w.Write(buf); err != nil {
		return buf, fmt.Errorf("wire: write message: %w", err)
	}
	return buf, nil
}

// ReadMessage decodes one message from r into a buffer the message owns
// outright.
func ReadMessage(r io.Reader) (Message, error) { return readMessage(r, false) }

// readMessage is the one body reader. Unpooled, the body is a fresh
// allocation; pooled, it is borrowed from frame.Pool and Message.Release
// returns it. The length prefix is checked before any buffer is sized from
// it, and a buffer whose read or parse failed is left to the collector
// rather than Put back: the pool only ever retains buffers that carried a
// whole message, so a peer that sends a large prefix and hangs up pins
// nothing.
func readMessage(r io.Reader, pooled bool) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Message{}, io.EOF
		}
		return Message{}, fmt.Errorf("wire: read header: %w", err)
	}
	body := binary.BigEndian.Uint32(hdr[:])
	if body > MaxMessageSize {
		return Message{}, errMessageTooLarge
	}
	var buf []byte
	if pooled {
		buf = frame.Pool.GetDirty(int(body))
	} else {
		buf = make([]byte, body)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return Message{}, fmt.Errorf("wire: read body: %w", err)
	}
	m, err := decodeBody(buf)
	if err != nil {
		return Message{}, err
	}
	if pooled {
		m.body = buf
	}
	return m, nil
}

// decodeBody parses the parts out of one read buffer. Parts borrow
// subslices of buf rather than copying — the buffer is dedicated to this
// message until it is released, so downstream consumers may hold the parts
// as long as they hold the message.
func decodeBody(buf []byte) (Message, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return Message{}, errors.New("wire: corrupt part count")
	}
	buf = buf[n:]
	if count > uint64(len(buf))+1 {
		return Message{}, errors.New("wire: implausible part count")
	}
	m := Message{Parts: make([][]byte, 0, count)}
	for i := uint64(0); i < count; i++ {
		plen, n := binary.Uvarint(buf)
		if n <= 0 {
			return Message{}, errors.New("wire: corrupt part length")
		}
		buf = buf[n:]
		if plen > uint64(len(buf)) {
			return Message{}, errors.New("wire: part overruns body")
		}
		m.Parts = append(m.Parts, buf[:plen:plen])
		buf = buf[plen:]
	}
	if len(buf) != 0 {
		return Message{}, errors.New("wire: trailing bytes after parts")
	}
	return m, nil
}
