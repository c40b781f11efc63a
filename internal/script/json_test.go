package script

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// The payload codec's contract is "encoding/json over the same data as
// plain Go values, minus the map[string]any tree": same bytes out, same values in, the same
// documents refused — except that nesting past MaxDepth is refused where
// encoding/json goes on to 10 000. These tests hold it to that against
// encoding/json itself.

// jsonNesting is the deepest container nesting in a decoded document.
func jsonNesting(g any) int {
	deepest := 0
	switch x := g.(type) {
	case []any:
		for _, e := range x {
			deepest = max(deepest, jsonNesting(e))
		}
		return deepest + 1
	case map[string]any:
		for _, e := range x {
			deepest = max(deepest, jsonNesting(e))
		}
		return deepest + 1
	}
	return 0
}

// checkJSONCodec runs one document through both decoders and, when it
// decodes, back through both encoders.
func checkJSONCodec(t *testing.T, doc []byte) {
	t.Helper()
	var std any
	stdErr := json.Unmarshal(doc, &std)
	got, err := ParseJSON(doc)
	switch {
	case stdErr != nil && err == nil:
		t.Fatalf("ParseJSON accepted %q, encoding/json refuses it: %v", doc, stdErr)
	case stdErr == nil && err != nil:
		if err == errTooDeep && jsonNesting(std) > MaxDepth {
			return // the one documented divergence
		}
		t.Fatalf("ParseJSON refused %q (%v), encoding/json accepts it", doc, err)
	case stdErr != nil:
		return
	}
	if jsonNesting(std) > MaxDepth {
		t.Fatalf("ParseJSON accepted %d levels of nesting, MaxDepth is %d", jsonNesting(std), MaxDepth)
	}
	want, stdErr := json.Marshal(std)
	out, err := AppendJSON(nil, got)
	if (stdErr == nil) != (err == nil) {
		t.Fatalf("encode of %q: AppendJSON err %v, json.Marshal err %v", doc, err, stdErr)
	}
	if err == nil && !bytes.Equal(out, want) {
		t.Fatalf("encode of %q:\n got %s\nwant %s", doc, out, want)
	}
	cp, cerr := Clone(got)
	if cerr != nil {
		t.Fatalf("Clone of the scanned %q: %v", doc, cerr)
	}
	if cpOut, cpErr := AppendJSON(nil, cp); (cpErr == nil) != (err == nil) || !bytes.Equal(cpOut, out) {
		t.Fatalf("encode of the clone of %q:\n got %s (err %v)\nwant %s (err %v)", doc, cpOut, cpErr, out, err)
	}
}

// checkJSONScalars runs raw bytes through both encoders as a string (any
// byte sequence, valid UTF-8 or not) and as a float64 bit pattern.
func checkJSONScalars(t *testing.T, raw []byte) {
	t.Helper()
	s := string(raw)
	want, _ := json.Marshal(s)
	if got, err := AppendJSON(nil, s); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("string %q: got %s (err %v), want %s", s, got, err, want)
	}
	var bits uint64
	for i, b := range raw {
		bits |= uint64(b) << (8 * (i % 8))
	}
	f := math.Float64frombits(bits)
	want, stdErr := json.Marshal(f)
	got, err := AppendJSON(nil, f)
	if (stdErr == nil) != (err == nil) {
		t.Fatalf("float %v: AppendJSON err %v, json.Marshal err %v", f, err, stdErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("float %v: got %s, want %s", f, got, want)
	}
}

// fitnessBody is a call_module body as the fitness rep_counter stage sends
// it to display: a pose in the pose_detector's layout plus the scalars.
func fitnessBody(poses int) string {
	var kps []string
	for i := 0; i < 17; i++ {
		kps = append(kps, fmt.Sprintf(`{"name":"kp_%d","x":%v,"y":%v}`, i, 160.25+float64(i)*3.1, 99.5-float64(i)/3))
	}
	pose := fmt.Sprintf(`{"box":{"max_x":212.5,"max_y":230,"min_x":98.125,"min_y":12},"keypoints":[%s],"score":0.9375}`, strings.Join(kps, ","))
	if poses > 1 {
		return `{"poses":[` + strings.TrimSuffix(strings.Repeat(pose+",", poses), ",") + `]}`
	}
	return `{"activity":"squat","captured_ms":1696300000123.4565,"confidence":0.8666666666666667,"pose":` + pose + `,"reps":3,"seq":41}`
}

// jsonCodecSeeds are shipped-app bodies, a 15-pose window and inputs picked
// to sit on every rule the two decoders must agree on.
var jsonCodecSeeds = []string{
	fitnessBody(1), fitnessBody(15),
	`{"captured_ms":1.6963e12,"seq":0}`, `{"gesture":"clap","captured_ms":12.5}`, `{"fallen":true,"alert":false}`,
	`null`, `true`, `false`, `0`, `-0`, `1e21`, `1e-7`, `123456789012345678901234567890`, `0.000001`, `1E+2`, `-1.5e-300`, `5e-324`, `1e-400`,
	`1e999`, `-1e999`, `01`, `1.`, `.5`, `+1`, `-`, `1e`, `1e+`, `0x10`, `NaN`, `Infinity`, `1_000`,
	`""`, `"a\"b\\c\/d\b\f\n\r\t"`, `"\u00e9\u4e16\u754c"`, `"<script>&amp;</script>"`, "\"\u2028\u2029\"", `"\u2028"`,
	`"\ud83d\ude00"`, `"\ud83d"`, `"\ude00"`, `"\ud83dx"`, `"\ud83d\u0041"`, `"\ud83d\ud83d\ude00"`, `"\uD83D\uDE00"`,
	"\"\xff\xfe\"", "\"a\xc3\"", "\"\xed\xa0\x80\"", "\"tab\there\"", "\"nul\x00\"", `"\x41"`, `"\'"`, `"\u12"`, `"\u12g4"`, `"unterminated`, `"\`,
	`[]`, `{}`, `[[]]`, `[{}]`, ` [ 1 , 2 ] `, "\t{\n\"a\" :\r 1 }\n", `[1,]`, `[,1]`, `{"a":1,}`, `{,}`, `{"a"}`, `{"a":}`, `{a:1}`, `{1:2}`, `[1 2]`, `{"a":1 "b":2}`,
	`{"a":1,"a":2}`, `{"a":{"x":1},"a":{"y":2}}`, `{"":0,"a":{"":null}}`, `{"b":1,"a":2,"B":3,"é":4,"aa":5}`,
	`[1] x`, `{} {}`, `1 2`, `nul`, `tru`, `falsee`, `nullx`, ``, ` `, `[`, `{`, `]`, `}`, `[1`, `{"a":1`,
	strings.Repeat("[", 200) + strings.Repeat("]", 200),
	strings.Repeat("[", MaxDepth) + strings.Repeat("]", MaxDepth),
	strings.Repeat("[", MaxDepth+1) + strings.Repeat("]", MaxDepth+1),
	strings.Repeat(`{"k":`, MaxDepth) + `1` + strings.Repeat("}", MaxDepth),
	strings.Repeat(`{"k":`, MaxDepth+1) + `1` + strings.Repeat("}", MaxDepth+1),
	// Arrays of objects, decoded as record runs.
	`[{"a":1,"b":2},{"a":3,"b":4}]`, `[1,{},{"a":1},"x",[{"b":2}]]`, `[{"a":1,"a":2,"b":3},{"c":4}]`,
	`[{},{},{"a":[{"b":{}},{}]}]`, `[{"a":1},{"b"}]`, `[{"a":1},{"b":2}`, `[{"a":1}{"b":2}]`,
	strings.Repeat("[", MaxDepth-1) + `{"a":1}` + strings.Repeat("]", MaxDepth-1),
	strings.Repeat("[", MaxDepth) + `{"a":1}` + strings.Repeat("]", MaxDepth),
}

func TestJSONCodecMatchesEncodingJSON(t *testing.T) {
	for _, doc := range jsonCodecSeeds {
		checkJSONCodec(t, []byte(doc))
		checkJSONScalars(t, []byte(doc))
	}
	// Every float64 format boundary, both signs.
	for _, f := range []float64{0, 1, 0.1, 1e-6, 9.999999e-7, 1e21, 9.99999999e20, 1e-9, 1.5e-10, 1e100, math.MaxFloat64, math.SmallestNonzeroFloat64, 1 << 53, 0.30000000000000004} {
		for _, v := range []float64{f, -f} {
			want, _ := json.Marshal(v)
			if got, err := AppendJSON(nil, v); err != nil || !bytes.Equal(got, want) {
				t.Errorf("float %v: got %s (err %v), want %s", v, got, err, want)
			}
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendJSON(nil, &Array{Elems: []Value{v}}); err == nil {
			t.Errorf("AppendJSON(%v) succeeded, encoding/json refuses it", v)
		}
	}
}

// Functions, host functions and opaque host values encode as null, wherever it sits; an omitted top-level key is left out
// and only at the top level; the encoder's key scratch survives an error.
func TestJSONEncoderValuesThatDoNotTravel(t *testing.T) {
	c := NewContext()
	fn, err := evalIn(c, "function f() {} f")
	if err != nil {
		t.Fatal(err)
	}
	host := HostFunc(func([]Value) (Value, error) { return nil, nil })
	msg := FromGo(map[string]any{
		"frame_ref": 7.0, "fn": fn, "host": host, "opaque": struct{ X int }{1},
		"nested": map[string]any{"frame_ref": 8.0, "fn": fn},
		"list":   &Array{Elems: []Value{fn, 1.0, nil}},
	}).(*Object)
	plain := map[string]any{
		"frame_ref": 7.0, "fn": nil, "host": nil, "opaque": nil,
		"nested": map[string]any{"frame_ref": 8.0, "fn": nil},
		"list":   []any{nil, 1.0, nil},
	}
	want, _ := json.Marshal(plain)
	if got, err := AppendJSON(nil, msg); err != nil || !bytes.Equal(got, want) {
		t.Errorf("AppendJSON:\n got %s (err %v)\nwant %s", got, err, want)
	}
	delete(plain, "frame_ref")
	want, _ = json.Marshal(plain)
	var enc JSONEncoder
	for i := 0; i < 2; i++ {
		if got, err := enc.AppendObject(nil, msg, "frame_ref"); err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendObject without frame_ref:\n got %s (err %v)\nwant %s", got, err, want)
		}
		if _, err := enc.value(nil, FromGo(map[string]any{"a": 1.0, "b": math.NaN(), "c": 2.0}), 0, ""); err == nil {
			t.Error("NaN inside an object encoded")
		}
	}
}

func TestDecodeFields(t *testing.T) {
	decode := func(doc string) (*Object, error) { return new(JSONDecoder).DecodeFields([]byte(doc)) }
	for _, doc := range []string{``, `null`, ` null `} {
		if o, err := decode(doc); o != nil || err != nil {
			t.Errorf("DecodeFields(%q) = %v, %v; want nil, nil", doc, o, err)
		}
	}
	if o, err := decode(`{"a":[1]}`); err != nil || o.Len() != 1 {
		t.Errorf("DecodeFields(object) = %v, %v", o, err)
	}
	// What json.Unmarshal into a map[string]any refused, this refuses.
	for _, doc := range []string{`[]`, `1`, `"s"`, `true`, `{`} {
		var m map[string]any
		if json.Unmarshal([]byte(doc), &m) == nil {
			t.Fatalf("test premise: encoding/json takes %q as a map", doc)
		}
		if _, err := decode(doc); err == nil {
			t.Errorf("DecodeFields(%q) succeeded", doc)
		}
	}
}

func FuzzJSONCodec(f *testing.F) {
	for _, seed := range jsonCodecSeeds {
		f.Add([]byte(seed))
	}
	dec := NewJSONDecoder() // one decoder across every input, as a module keeps it
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkJSONCodec(t, doc)
		checkJSONScalars(t, doc)
		checkJSONDecoder(t, dec, doc)
		checkJSONDecoder(t, dec, append(append([]byte(`{"v":`), doc...), '}'))
	})
}

// checkJSONDecoder requires a long-lived interning JSONDecoder to give what
// a fresh one that interns nothing gives, with nothing in the value pointing
// into the input: the input is overwritten before the comparison.
func checkJSONDecoder(t *testing.T, dec *JSONDecoder, doc []byte) {
	t.Helper()
	want, wantErr := new(JSONDecoder).DecodeFields(doc)
	buf := bytes.Clone(doc)
	got, err := dec.DecodeFields(buf)
	for i := range buf {
		buf[i] = 'x'
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("JSONDecoder.DecodeFields(%q) = %v, %v; a fresh decoder gives %v, %v", doc, got, err, want, wantErr)
	}
	if n := len(dec.p.strs); n > maxInternTable {
		t.Fatalf("intern table holds %d strings, its cap is %d", n, maxInternTable)
	}
}

// TestJSONDecoderInternBounds: only unescaped strings of up to 32 bytes are
// interned, a stream of distinct ones never grows the table past 256, and
// interning changes no decoded value. A key is one string however long,
// since every key is a unique.Handle; the bound shows on string values.
func TestJSONDecoderInternBounds(t *testing.T) {
	dec := NewJSONDecoder()
	decodeKey := func(doc string) string {
		t.Helper()
		o, err := dec.DecodeFields([]byte(doc))
		if err != nil || o.Len() != 1 {
			t.Fatalf("DecodeFields(%s) = %v, %v", doc, o, err)
		}
		k, _ := o.Field(0)
		return k
	}
	decodeValue := func(doc string) string {
		t.Helper()
		o, err := dec.DecodeFields([]byte(doc))
		if err != nil || o.Len() != 1 {
			t.Fatalf("DecodeFields(%s) = %v, %v", doc, o, err)
		}
		_, v := o.Field(0)
		return v.(string)
	}
	// shared reports whether two scans of doc return one string.
	shared := func(decode func(string) string, doc string) bool {
		return unsafe.StringData(decode(doc)) == unsafe.StringData(decode(doc))
	}
	for i := range 3 * maxInternTable {
		key := fmt.Sprintf("key_%d", i)
		if got := decodeKey(`{"` + key + `":1}`); got != key {
			t.Fatalf("key %q decoded as %q", key, got)
		}
		if n := len(dec.p.strs); n > maxInternTable {
			t.Fatalf("after %d distinct keys the table holds %d strings, its cap is %d", i+1, n, maxInternTable)
		}
	}
	at, over := strings.Repeat("a", maxInternLen), strings.Repeat("b", maxInternLen+1)
	if !shared(decodeValue, `{"k":"`+at+`"}`) {
		t.Errorf("a %d-byte string was not interned", maxInternLen)
	}
	if _, in := dec.p.strs[over]; in || shared(decodeValue, `{"k":"`+over+`"}`) {
		t.Errorf("a %d-byte string was interned", maxInternLen+1)
	}
	if _, in := dec.p.strs[over]; in || !shared(decodeKey, `{"`+over+`":1}`) {
		t.Errorf("a %d-byte key went into the table, or is not one string", maxInternLen+1)
	}
	got := decodeKey(`{"esc\u0061ped":1}`)
	if _, in := dec.p.strs["escaped"]; got != "escaped" || in {
		t.Errorf("escaped key decoded as %q, interned %v", got, in)
	}
}
