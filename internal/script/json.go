package script

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
	"unique"
)

// The payload JSON codec: one append encoder and one scanner that move
// script values to and from JSON text with no map[string]any tree in
// between. Everything that leaves a device — call_module to a remote
// module, call_service to a remote pool — and json_encode / json_decode go
// through it. On everything both accept it is byte-identical to
// encoding/json over the same data as plain Go values: sorted keys, the same float format and
// HTML / U+2028 escaping, invalid UTF-8 and lone surrogates to U+FFFD, NaN
// and ±Inf an error, duplicate keys last-wins, a number outside float64 and
// trailing bytes refused. The one divergence is depth: nesting past MaxDepth
// is an error in both directions, where encoding/json stops at 10 000.

// JSONEncoder appends values as JSON. The zero value is ready to use; a
// long-lived one keeps its key-sorting scratch, so a warm append allocates
// nothing beyond dst's growth. Not safe for concurrent use.
type JSONEncoder struct {
	// fields is a stack of the key-sorted fields of the objects being
	// written.
	fields []field
	// over, when positive, is the len(dst) at which the encoder gives up
	// with ErrTooLong (json_encode under a memory budget).
	over int
}

// AppendJSON appends the JSON encoding of v to dst. Functions and opaque
// host values encode as null.
func AppendJSON(dst []byte, v Value) ([]byte, error) {
	var e JSONEncoder
	return e.value(dst, v, 0, "")
}

// AppendObject appends the JSON encoding of o to dst, leaving out the
// top-level field named omit ("" keeps every field) — how a message's
// frame_ref stays off the wire without copying the message.
func (e *JSONEncoder) AppendObject(dst []byte, o *Object, omit string) ([]byte, error) {
	return e.value(dst, o, 0, omit)
}

// grow makes room in dst for a small write. append grows a large slice by a
// quarter at a time, five bytes allocated for each one kept; doubling here,
// where the small writes come from, makes that two — and no further than a
// budget's bound.
func (e *JSONEncoder) grow(dst []byte) []byte {
	if cap(dst)-len(dst) < 64 {
		room := max(cap(dst), 64)
		if e.over > 0 {
			room = min(room, max(e.over-len(dst), 0)+64)
		}
		dst = slices.Grow(dst, room)
	}
	return dst
}

// number appends x as value appends a number: an object's fields hold
// theirs unboxed.
func (e *JSONEncoder) number(dst []byte, x float64) ([]byte, error) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(x, 'g', -1, 64))
	}
	dst = appendJSONFloat(e.grow(dst), x)
	if e.over > 0 && len(dst) >= e.over {
		return dst, ErrTooLong
	}
	return dst, nil
}

func (e *JSONEncoder) value(dst []byte, v Value, depth int, omit string) (_ []byte, err error) {
	dst = e.grow(dst)
	switch x := v.(type) {
	case bool:
		dst = strconv.AppendBool(dst, x)
	case float64:
		return e.number(dst, x)
	case string:
		dst = appendJSONString(dst, x)
	case *Array:
		if depth >= MaxDepth {
			return dst, errTooDeep
		}
		dst = append(dst, '[')
		for i, el := range x.Elems {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = e.value(dst, el, depth+1, ""); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	case *Object:
		if depth >= MaxDepth {
			return dst, errTooDeep
		}
		// The object's fields sit on top of the stack while they are
		// written; nested objects push above them and pop before the next
		// field, so they are re-read by index, never held as a slice.
		base := len(e.fields)
		for _, f := range x.fields {
			if omit == "" || f.key.Value() != omit {
				e.fields = append(e.fields, f)
			}
		}
		slices.SortFunc(e.fields[base:], func(a, b field) int { return strings.Compare(a.key.Value(), b.key.Value()) })
		dst = append(dst, '{')
		for i := base; i < len(e.fields) && err == nil; i++ {
			if i > base {
				dst = append(dst, ',')
			}
			f := &e.fields[i]
			dst = append(appendJSONString(dst, f.key.Value()), ':')
			if f.isNum() {
				dst, err = e.number(dst, f.num)
			} else {
				dst, err = e.value(dst, f.ref, depth+1, "")
			}
		}
		clear(e.fields[base:])
		e.fields = e.fields[:base]
		if err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	default:
		dst = append(dst, "null"...)
	}
	if e.over > 0 && len(dst) >= e.over {
		return dst, ErrTooLong
	}
	return dst, nil
}

// appendJSONFloat formats f as encoding/json does: ES6 number-to-string,
// i.e. %f between 1e-6 and 1e21 and %e with a trimmed exponent outside.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 -> e-9
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s with encoding/json's default (HTML-safe)
// escaping.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		invalid := c == utf8.RuneError && size == 1
		short := strings.IndexRune("\"\\\b\f\n\r\t", c)
		if c >= ' ' && short < 0 && !invalid && c != '<' && c != '>' && c != '&' && c != '\u2028' && c != '\u2029' {
			i += size
			continue
		}
		dst = append(dst, s[start:i]...)
		switch {
		case short >= 0:
			dst = append(dst, '\\', `"\bfnrt`[short])
		case invalid:
			dst = append(dst, `\ufffd`...)
		default:
			dst = append(dst, '\\', 'u', hexDigits[c>>12], hexDigits[c>>8&0xF], hexDigits[c>>4&0xF], hexDigits[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// ParseJSON decodes one JSON document into a script value.
func ParseJSON(data []byte) (Value, error) {
	p := jsonParser{data: data}
	return p.document()
}

// JSONDecoder decodes message bodies, keeping its scanning scratch from one
// body to the next; the zero value is ready to use. The objects that are elements
// of one array wait on that scratch until the array ends and are then packed
// as one record run, so a pose's 17 keypoints cost two allocations, not 17
// (ParseJSON and json_decode decode the same way). Numbers go into their
// fields unboxed. One from NewJSONDecoder also interns the unescaped strings
// of up to 32 bytes it reads, in a table emptied when it reaches 256
// (constants, not knobs): the keys a module's inbound edge repeats in every
// message are then one string each, boxed once, and one key handle each.
// Not safe for concurrent use.
type JSONDecoder struct{ p jsonParser }

const maxInternLen, maxInternTable = 32, 256

// NewJSONDecoder returns an interning decoder.
func NewJSONDecoder() *JSONDecoder {
	return &JSONDecoder{p: jsonParser{strs: make(map[string]interned)}}
}

// DecodeFields decodes one message body: a JSON object, or null or no
// bytes at all (an absent optional part), which yield a nil object.
func (d *JSONDecoder) DecodeFields(data []byte) (*Object, error) {
	if len(data) == 0 {
		return nil, nil
	}
	clear(d.p.stack) // a failed body can leave values behind
	clear(d.p.fields)
	d.p = jsonParser{data: data, stack: d.p.stack[:0], fields: d.p.fields[:0], runs: d.p.runs[:0], strs: d.p.strs}
	v, err := d.p.document()
	d.p.data = nil // the caller may recycle the buffer
	switch x := v.(type) {
	case nil:
		return nil, err
	case *Object:
		return x, nil
	default:
		return nil, fmt.Errorf("json: cannot use %s as a message object", TypeName(v))
	}
}

// jsonParser is a recursive-descent scanner over one document. The first
// error sticks and moves pos to the end, so every later read sees the end
// of input and the descent unwinds without a check at each step.
type jsonParser struct {
	data []byte
	pos  int
	err  error
	// stack and fields collect the elements of the arrays and the fields of
	// the objects being read, so each is allocated once at its final size.
	stack  []Value
	fields []field
	// runs holds the field counts of the object elements of the arrays
	// being read: their records are packed as one run at ']'.
	runs []int
	// strs, when non-nil, interns short strings read with no escapes.
	strs map[string]interned
}

// interned is an intern table entry: the string boxed, and its key handle
// once it has been read as a key.
type interned struct {
	v   Value
	key unique.Handle[string]
}

func (p *jsonParser) document() (Value, error) {
	v := p.value(0)
	if c := p.next(); p.pos < len(p.data) {
		p.fail("unexpected %q after the top-level value", c)
	}
	if p.err != nil {
		return nil, p.err
	}
	return v, nil
}

func (p *jsonParser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("json: "+format+" (offset %d)", append(args, p.pos)...)
	}
	p.pos = len(p.data)
}

// next skips white space and returns the byte at pos without consuming it,
// 0 at the end of input.
func (p *jsonParser) next() byte {
	for ; p.pos < len(p.data); p.pos++ {
		if c := p.data[p.pos]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c
		}
	}
	return 0
}

// take is next, consumed.
func (p *jsonParser) take() byte {
	c := p.next()
	if p.pos < len(p.data) {
		p.pos++
	}
	return c
}

// accept consumes the byte at pos if it is c.
func (p *jsonParser) accept(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// value reads one value, depth containers below the document.
func (p *jsonParser) value(depth int) Value {
	switch c := p.next(); {
	case (c == '{' || c == '[') && depth >= MaxDepth:
		if p.err == nil {
			p.err = errTooDeep
		}
		p.pos = len(p.data)
	case c == '{':
		return p.object(depth)
	case c == '[':
		return p.array(depth)
	case c == '"':
		raw, s := p.str()
		if raw == nil {
			return s
		}
		return p.intern(raw).v
	case c == '-' || '0' <= c && c <= '9':
		return p.number()
	case c == 't' && p.literal("true"):
		return true
	case c == 'f' && p.literal("false"):
		return false
	case c == 'n' && p.literal("null"):
	case p.pos >= len(p.data):
		p.fail("unexpected end of input")
	default:
		p.fail("unexpected %q looking for a value", c)
	}
	return nil
}

func (p *jsonParser) literal(word string) bool {
	ok := len(p.data)-p.pos >= len(word) && string(p.data[p.pos:p.pos+len(word)]) == word
	if ok {
		p.pos += len(word)
	}
	return ok
}

// runSlot holds an array element's place on the stack while its fields wait
// on p.fields to be packed into the array's record run at ']'. No JSON value
// decodes to a nil *Object.
var runSlot Value = (*Object)(nil)

func (p *jsonParser) array(depth int) Value {
	p.pos++
	if p.next() == ']' {
		p.pos++
		return &Array{Elems: []Value{}}
	}
	base, fbase, rbase := len(p.stack), len(p.fields), len(p.runs)
	for {
		if p.next() == '{' && depth+1 < MaxDepth {
			p.runs = append(p.runs, p.objectFields(depth+1))
			p.stack = append(p.stack, runSlot)
		} else {
			p.stack = append(p.stack, p.value(depth+1))
		}
		if c := p.take(); c == ']' {
			break
		} else if c != ',' {
			p.fail("unexpected %q after an array element", c)
			return nil
		}
	}
	elems := make([]Value, len(p.stack)-base)
	copy(elems, p.stack[base:])
	clear(p.stack[base:])
	p.stack = p.stack[:base]
	if sizes := p.runs[rbase:]; len(sizes) > 0 {
		run, fields := newRecordRun(len(sizes), len(p.fields)-fbase), p.fields[fbase:]
		for i, e := range elems {
			if e != runSlot {
				continue
			}
			obj := run.next(sizes[0])
			for _, f := range fields[:sizes[0]] {
				*obj.at(f.key) = f // a repeated key keeps its last value
			}
			elems[i], fields, sizes = obj, fields[sizes[0]:], sizes[1:]
		}
		clear(p.fields[fbase:])
		p.fields, p.runs = p.fields[:fbase], p.runs[:rbase]
	}
	return &Array{Elems: elems}
}

func (p *jsonParser) object(depth int) Value {
	base := len(p.fields)
	obj := NewObjectSize(p.objectFields(depth) + frameRefRoom(depth))
	for _, f := range p.fields[base:] {
		*obj.at(f.key) = f // a repeated key keeps its last value
	}
	clear(p.fields[base:])
	p.fields = p.fields[:base]
	return obj
}

// objectFields reads an object's fields onto p.fields, repeated keys and
// all, and reports how many it read.
func (p *jsonParser) objectFields(depth int) int {
	p.pos++
	base := len(p.fields)
	if p.next() == '}' {
		p.pos++
		return 0
	}
	for {
		if p.next() != '"' {
			p.fail("object key must be a string")
			break
		}
		f := field{key: p.key()}
		if p.take() != ':' {
			p.fail("missing ':' after an object key")
			break
		}
		if c := p.next(); c == '-' || '0' <= c && c <= '9' {
			f.setNum(p.number())
		} else {
			f.set(p.value(depth + 1))
		}
		p.fields = append(p.fields, f)
		if c := p.take(); c == '}' {
			break
		} else if c != ',' {
			p.fail("unexpected %q after an object value", c)
			break
		}
	}
	return len(p.fields) - base
}

// number reads a JSON number literal and converts it as strconv does, so a
// literal outside float64's range is an error and an underflow is zero.
func (p *jsonParser) number() float64 {
	start := p.pos
	digits := func() (n int) {
		for ; p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9'; n++ {
			p.pos++
		}
		return n
	}
	p.accept('-')
	lead := p.pos
	ok := digits() > 0 && (p.data[lead] != '0' || p.pos == lead+1) // no leading zeros
	if ok && p.accept('.') {
		ok = digits() > 0
	}
	if ok && (p.accept('e') || p.accept('E')) {
		_ = p.accept('+') || p.accept('-')
		ok = digits() > 0
	}
	f, err := strconv.ParseFloat(string(p.data[start:p.pos]), 64)
	if !ok || err != nil {
		p.fail("%q is not a number a float64 can hold", p.data[start:p.pos])
		return 0
	}
	return f
}

// str reads a string literal starting at its opening quote. One with no
// escapes comes back as raw, a window on the input for the caller to intern
// or convert; any other as s.
func (p *jsonParser) str() (raw []byte, s string) {
	p.pos++
	start := p.pos
	// buf stays nil while the literal is its own value: no escapes, valid
	// UTF-8. The first byte that needs rewriting copies the prefix into it.
	var buf []byte
	rewrite := func() {
		if buf == nil {
			buf = append(make([]byte, 0, p.pos-start+16), p.data[start:p.pos]...)
		}
	}
	for p.pos < len(p.data) {
		switch c := p.data[p.pos]; {
		case c == '"':
			p.pos++
			if buf == nil {
				return p.data[start : p.pos-1], ""
			}
			return nil, string(buf)
		case c < ' ':
			p.fail("control character %q in a string literal", c)
		case c == '\\':
			rewrite()
			buf = p.escape(buf)
		case c < utf8.RuneSelf:
			if buf != nil {
				buf = append(buf, c)
			}
			p.pos++
		default:
			r, size := utf8.DecodeRune(p.data[p.pos:])
			if r == utf8.RuneError && size == 1 {
				rewrite()
			}
			if buf != nil {
				buf = utf8.AppendRune(buf, r)
			}
			p.pos += size
		}
	}
	p.fail("unterminated string literal")
	return nil, ""
}

// key reads an object key, as an interned handle.
func (p *jsonParser) key() unique.Handle[string] {
	raw, s := p.str()
	switch {
	case raw == nil:
		return unique.Make(s)
	case p.strs == nil || len(raw) > maxInternLen:
		return unique.Make(string(raw))
	}
	e := p.intern(raw)
	if e.key == (unique.Handle[string]{}) {
		e.key = unique.Make(e.v.(string))
		p.strs[e.v.(string)] = e
	}
	return e.key
}

// intern returns the entry for b, from the intern table when there is one.
// The lookup converts b without allocating.
func (p *jsonParser) intern(b []byte) interned {
	if p.strs == nil || len(b) > maxInternLen {
		return interned{v: string(b)}
	}
	e, ok := p.strs[string(b)]
	if !ok {
		if len(p.strs) >= maxInternTable {
			clear(p.strs)
		}
		s := string(b)
		e = interned{v: s}
		p.strs[s] = e
	}
	return e
}

// escape reads the escape sequence at pos (a backslash) onto buf. A \u
// surrogate followed by its other half is one rune; a lone one is U+FFFD
// and whatever follows it is read afresh.
func (p *jsonParser) escape(buf []byte) []byte {
	if p.pos+1 < len(p.data) {
		if i := strings.IndexByte(`"\/bfnrt`, p.data[p.pos+1]); i >= 0 {
			p.pos += 2
			return append(buf, "\"\\/\b\f\n\r\t"[i])
		}
	}
	r := hex4(p.data, p.pos)
	if r < 0 {
		p.fail("invalid escape in a string literal")
		return buf
	}
	p.pos += 6
	if utf16.IsSurrogate(r) {
		if r = utf16.DecodeRune(r, hex4(p.data, p.pos)); r != utf8.RuneError {
			p.pos += 6
		}
	}
	return utf8.AppendRune(buf, r)
}

// hex4 decodes the \uXXXX escape at data[i:], or returns -1.
func hex4(data []byte, i int) rune {
	if i+6 > len(data) || data[i] != '\\' || data[i+1] != 'u' {
		return -1
	}
	n, err := strconv.ParseUint(string(data[i+2:i+6]), 16, 32)
	if err != nil {
		return -1
	}
	return rune(n)
}
