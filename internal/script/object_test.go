package script

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"unique"
	"unsafe"
)

// Objects are compared with the outside world's eyes — JSON, the
// stdlib — never through their field table, whose slot order is free to
// change.

// objectOracle checks o against want through every read a script or a Go
// consumer has: Get/Lookup on every key ever used, Len, SortedKeys,
// JSON, and the len/has/keys builtins.
func objectOracle(t *testing.T, o *Object, want map[string]Value, universe []string) {
	t.Helper()
	for _, k := range universe {
		wv, wok := want[k]
		if v, ok := o.Lookup(k); ok != wok || v != wv {
			t.Fatalf("Lookup(%q) = %v, %v; want %v, %v", k, v, ok, wv, wok)
		}
		if v := o.Get(k); v != wv {
			t.Fatalf("Get(%q) = %v, want %v", k, v, wv)
		}
		if has, _ := builtins["has"].fn(nil, []Value{o, k}); has != wok {
			t.Fatalf("has(%q) = %v, want %v", k, has, wok)
		}
	}
	if o.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", o.Len(), len(want))
	}
	if n, _ := stdLen(nil, []Value{o}); n != float64(len(want)) {
		t.Fatalf("len() = %v, want %d", n, len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := o.SortedKeys(); !slices.Equal(got, keys) {
		t.Fatalf("SortedKeys() = %v, want %v", got, keys)
	}
	ks, _ := builtins["keys"].fn(nil, []Value{o})
	if got, _ := Stringify(ks); got != fmt.Sprint("[", joinKeys(keys), "]") {
		t.Fatalf("keys() = %s, want %v", got, keys)
	}
	plain := make(map[string]any, len(want))
	for k, v := range want {
		plain[k] = v
	}
	wantJSON, _ := json.Marshal(plain)
	if gotJSON, err := AppendJSON(nil, o); err != nil || string(gotJSON) != string(wantJSON) {
		t.Fatalf("AppendJSON() = %s, %v; want %s", gotJSON, err, wantJSON)
	}
}

func joinKeys(keys []string) string {
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += ", "
		}
		s += k
	}
	return s
}

func keyUniverse(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	return keys
}

func TestObjectNilReadsAsEmpty(t *testing.T) {
	var o *Object
	if v, ok := o.Lookup("a"); v != nil || ok {
		t.Errorf("nil Lookup = %v, %v", v, ok)
	}
	if o.Get("a") != nil || o.Len() != 0 || o.Delete("a") || len(o.SortedKeys()) != 0 {
		t.Error("a nil object does not read as empty")
	}
}

// TestObjectOps grows objects across the index threshold and back through
// sets, overwrites and deletes, checking every read after each step.
func TestObjectOps(t *testing.T) {
	universe := keyUniverse(41)
	for _, size := range []int{0, 1, 3, indexedFields, indexedFields + 1, 17, 40} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			o, want := NewObjectSize(size/2), map[string]Value{}
			for i := 0; i < size; i++ {
				o.Set(universe[i], float64(i))
				want[universe[i]] = float64(i)
				objectOracle(t, o, want, universe)
			}
			for i := 0; i < size; i += 3 { // overwrite in place
				o.Set(universe[i], "v")
				want[universe[i]] = "v"
			}
			objectOracle(t, o, want, universe)
			for i := 0; i < size; i += 2 { // delete from the front, the middle and the end
				if got := o.Delete(universe[i]); !got {
					t.Fatalf("Delete(%q) = false", universe[i])
				}
				delete(want, universe[i])
				objectOracle(t, o, want, universe)
			}
			if o.Delete("absent") {
				t.Error("Delete of an absent key reported true")
			}
			for i := size - 1; i >= 0; i-- { // re-add into the freed slots
				o.Set(universe[i], true)
				want[universe[i]] = true
			}
			objectOracle(t, o, want, universe)
			cp, err := Clone(o)
			if err != nil {
				t.Fatal(err)
			}
			objectOracle(t, cp.(*Object), want, universe)
		})
	}
}

// TestObjectJSONRepeatedKeys: the last of a repeated key wins, below and
// above the index threshold, as in encoding/json.
func TestObjectJSONRepeatedKeys(t *testing.T) {
	for _, n := range []int{3, indexedFields, 20} {
		doc := "{"
		want := map[string]Value{}
		for round := 0; round < 2; round++ {
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("k%02d", i)
				if len(doc) > 1 {
					doc += ","
				}
				doc += fmt.Sprintf("%q:%d", k, round*100+i)
				want[k] = float64(round*100 + i)
			}
		}
		doc += "}"
		v, err := ParseJSON([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		objectOracle(t, v.(*Object), want, keyUniverse(n+1))
	}
}

// TestObjectScriptOps runs the same kind of sequence from PipeScript.
func TestObjectScriptOps(t *testing.T) {
	c := NewContext()
	v, err := evalIn(c, `
		var o = {};
		for (var i = 0; i < 20; i++) { o["k" + i] = i; }
		for (var i = 0; i < 20; i += 2) { remove(o, "k" + i); }
		o.k1 = "one";
		var out = [len(o), has(o, "k0"), has(o, "k19"), o.k1, o.k0];
		for (var k of o) { push(out, k); }
		push(out, values(o));
		str(out) + json_encode(o)
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := `[10, false, true, one, null, k1, k11, k13, k15, k17, k19, k3, k5, k7, k9, [one, 11, 13, 15, 17, 19, 3, 5, 7, 9]]` +
		`{"k1":"one","k11":11,"k13":13,"k15":15,"k17":17,"k19":19,"k3":3,"k5":5,"k7":7,"k9":9}`
	if v != want {
		t.Errorf("got  %v\nwant %v", v, want)
	}
}

// FuzzObjectOps drives random set/get/remove/has/len/keys sequences over
// 41 keys against a map oracle, so an object crosses the index threshold
// in both directions many times.
func FuzzObjectOps(f *testing.F) {
	grow := make([]byte, 0, 96)
	for i := byte(0); i < 41; i++ {
		grow = append(grow, 0, i)
	}
	f.Add(grow)
	f.Add(append(slices.Clone(grow), 2, 3, 2, 9, 2, 40, 2, 0, 0, 9))
	f.Add([]byte{0, 1, 0, 1, 2, 1, 1, 1, 3, 1})
	// Odd lengths run on the middle record of a run of three.
	f.Add(append(slices.Clone(grow), 4))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 1, 0, 4, 0, 5, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		universe := keyUniverse(41)
		o, want := NewObjectSize(int(len(ops)%12)), map[string]Value{}
		if len(ops)%2 == 1 {
			// The neighbours fill their room, so a write past the middle
			// record's window would land in one of them.
			size := len(ops) % 12
			run := NewObjectRun(3, size)
			for i := range size {
				run[0].Set(fmt.Sprint("left", i), float64(i))
				run[2].Set(fmt.Sprint("right", i), float64(i))
			}
			o = &run[1]
			left, _ := AppendJSON(nil, &run[0])
			right, _ := AppendJSON(nil, &run[2])
			defer func() {
				l, _ := AppendJSON(nil, &run[0])
				r, _ := AppendJSON(nil, &run[2])
				if !bytes.Equal(l, left) || !bytes.Equal(r, right) {
					t.Fatalf("the middle record's ops changed its neighbours: %s %s, were %s %s", l, r, left, right)
				}
			}()
		}
		for i := 0; i+1 < len(ops); i += 2 {
			k := universe[int(ops[i+1])%len(universe)]
			switch ops[i] % 5 {
			case 0:
				o.Set(k, float64(i))
				want[k] = float64(i)
			case 1:
				if v, ok := o.Lookup(k); v != want[k] || ok != (want[k] != nil) {
					t.Fatalf("op %d: Lookup(%q) = %v, %v; want %v", i, k, v, ok, want[k])
				}
			case 2:
				_, had := want[k]
				if got, _ := builtins["remove"].fn(nil, []Value{o, k}); got != had {
					t.Fatalf("op %d: remove(%q) = %v, want %v", i, k, got, had)
				}
				delete(want, k)
			case 3:
				_, had := want[k]
				if got, _ := builtins["has"].fn(nil, []Value{o, k}); got != had {
					t.Fatalf("op %d: has(%q) = %v, want %v", i, k, got, had)
				}
			case 4:
				objectOracle(t, o, want, universe)
			}
		}
		objectOracle(t, o, want, universe)
	})
}

// recordRunArrays are the two ways an array's object elements become one
// record run: a Clone of the array, and a JSON decode of it.
func recordRunArrays(t *testing.T, doc string) (src Value, runs map[string]*Array) {
	t.Helper()
	src, err := ParseJSON([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Clone(src)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ParseJSON([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return src, map[string]*Array{"clone": cp.(*Array), "json": dec.(*Array)}
}

// encodeAll is every element of a, each encoded alone, and src.
func encodeAll(t *testing.T, a *Array, src Value) []string {
	t.Helper()
	var out []string
	for _, v := range append(slices.Clone(a.Elems), src) {
		b, err := AppendJSON(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

// TestRecordRunIsolation: the records of one run share one field block,
// yet changing one — a field added past its room, a delete and a re-add
// into the freed slot, growth past the key index, a Set — changes neither
// its neighbours nor the value it was copied or decoded from.
func TestRecordRunIsolation(t *testing.T) {
	const doc = `[{"a":1,"b":2},{"a":3,"b":4},{"a":5,"b":6},{"a":7,"b":8},{"a":9,"b":10}]`
	steps := []struct {
		name string
		at   int
		do   func(o *Object)
		want string
	}{
		{"add past its room", 0, func(o *Object) { o.Set("c", 0.5) }, `{"a":1,"b":2,"c":0.5}`},
		{"delete", 1, func(o *Object) { o.Delete("a") }, `{"b":4}`},
		{"re-add into the freed slot", 1, func(o *Object) { o.Set("z", "x") }, `{"b":4,"z":"x"}`},
		{"grow past the key index", 2, func(o *Object) {
			for i := range indexedFields {
				o.Set(fmt.Sprint("k", i), float64(i))
			}
		}, `{"a":5,"b":6,"k0":0,"k1":1,"k2":2,"k3":3,"k4":4,"k5":5,"k6":6,"k7":7}`},
		{"set", 3, func(o *Object) { o.Set("b", "eight") }, `{"a":7,"b":"eight"}`},
	}
	src, runs := recordRunArrays(t, doc)
	for how, arr := range runs {
		first, last := arr.Elems[0].(*Object), arr.Elems[len(arr.Elems)-1].(*Object)
		if d := uintptr(unsafe.Pointer(last)) - uintptr(unsafe.Pointer(first)); d != uintptr(len(arr.Elems)-1)*unsafe.Sizeof(Object{}) {
			t.Fatalf("%s: the elements are not one run (first to last %d bytes)", how, d)
		}
		for _, st := range steps {
			before := encodeAll(t, arr, src)
			st.do(arr.Elems[st.at].(*Object))
			after := encodeAll(t, arr, src)
			for i := range after {
				want := before[i]
				if i == st.at {
					want = st.want
				}
				if after[i] != want {
					t.Errorf("%s, %s on element %d: element %d reads %s, want %s", how, st.name, st.at, i, after[i], want)
				}
			}
		}
		if k := arr.Elems[2].(*Object); k.Get("k7") != 7.0 || k.Len() != 10 {
			t.Errorf("%s: the element grown past the index reads k7 = %v over %d fields", how, k.Get("k7"), k.Len())
		}
	}
}

// TestRecordRunShapes: arrays that mix records with other values, records
// with repeated keys and empty records copy and decode to what they hold,
// and a field added to any record stays in it.
func TestRecordRunShapes(t *testing.T) {
	for _, doc := range []string{
		`[1,{},{"a":1},"x",[{"b":2}]]`,
		`[{"a":1,"a":2,"b":3},{"c":4}]`,
		`[{},{},{"a":1}]`,
	} {
		src, runs := recordRunArrays(t, doc)
		canon, _ := AppendJSON(nil, src)
		for how, arr := range runs {
			if got, _ := AppendJSON(nil, arr); string(got) != string(canon) {
				t.Fatalf("%s of %s reads %s, want %s", how, doc, got, canon)
			}
			for i, e := range arr.Elems {
				o, ok := e.(*Object)
				if !ok {
					continue
				}
				before := encodeAll(t, arr, src)
				o.Set("added", true)
				after := encodeAll(t, arr, src)
				for j := range after {
					if j != i && after[j] != before[j] {
						t.Errorf("%s of %s: a field added to element %d changed element %d: %s, was %s", how, doc, i, j, after[j], before[j])
					}
				}
				if o.Get("added") != true {
					t.Errorf("%s of %s: element %d lost its added field", how, doc, i)
				}
			}
		}
	}
	if v, _ := ParseJSON([]byte(`[{"a":1,"a":2,"b":3},{"c":4}]`)); v.(*Array).Elems[0].(*Object).Get("a") != 2.0 {
		t.Error("a repeated key inside a record did not keep its last value")
	}
}

// TestRecordRunDepth: a record at MaxDepth is refused by both the copy and
// the decode, one level up it is accepted by both.
func TestRecordRunDepth(t *testing.T) {
	nest := func(arrays int) (string, Value) {
		var v Value = &Array{Elems: []Value{FromGo(map[string]any{"a": 1.0})}}
		for range arrays - 1 {
			v = &Array{Elems: []Value{v}}
		}
		return strings.Repeat("[", arrays) + `{"a":1}` + strings.Repeat("]", arrays), v
	}
	for _, arrays := range []int{MaxDepth - 1, MaxDepth} {
		doc, v := nest(arrays)
		_, cerr := Clone(v)
		_, jerr := ParseJSON([]byte(doc))
		if want := arrays >= MaxDepth; (cerr == errTooDeep) != want || (jerr == errTooDeep) != want || (cerr == nil) == want || (jerr == nil) == want {
			t.Errorf("a record under %d arrays: Clone %v, ParseJSON %v; want errTooDeep %v", arrays, cerr, jerr, want)
		}
	}
}

// TestUnboxedNumbers: a field holds its number unboxed and stays 32 bytes,
// a cell's size, and the unboxing is invisible: -0, NaN, ±Inf, null and a
// number stored over a string (and the reverse) keep their type and value
// through a script's member and index stores, a Go Set, JSON encode and
// decode, Clone, CopyMessage and Unshare.
func TestUnboxedNumbers(t *testing.T) {
	if n := unsafe.Sizeof(field{}); n != 32 {
		t.Fatalf("a field is %d bytes, want 32", n)
	}
	c := NewContext()
	if err := c.Load(`function store(o, before, v) { o.x = before; o.x = v; o["y"] = before; o["y"] = v; return o.x; }`); err != nil {
		t.Fatal(err)
	}
	same := func(a, b Value) bool {
		x, xNum := a.(float64)
		y, yNum := b.(float64)
		if xNum || yNum {
			return xNum && yNum && (math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y))
		}
		return a == b
	}
	for _, tc := range []struct {
		name      string
		before, v Value
	}{
		{"-0", nil, math.Copysign(0, -1)},
		{"NaN", nil, math.NaN()},
		{"+Inf", "s", math.Inf(1)},
		{"-Inf", 1.5, math.Inf(-1)},
		{"null over a number", 1.5, nil},
		{"number over a string", "s", 2.5},
		{"string over a number", 2.5, "s"},
	} {
		o := NewObjectSize(2)
		got, err := c.Call("store", o, tc.before, tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		check := func(how string, o *Object) {
			t.Helper()
			for _, k := range []string{"x", "y"} {
				if v, ok := o.Lookup(k); !ok || !same(v, tc.v) {
					t.Errorf("%s: %s: field %s is %#v (present %v), want %#v", tc.name, how, k, v, ok, tc.v)
				}
			}
			n, isNum := o.Num(unique.Make("x"))
			if want, wantNum := tc.v.(float64); isNum != wantNum || isNum && !same(n, want) {
				t.Errorf("%s: %s: Num = %v, %v; want %#v", tc.name, how, n, isNum, tc.v)
			}
		}
		if !same(got, tc.v) {
			t.Errorf("%s: the script read back %#v, want %#v", tc.name, got, tc.v)
		}
		check("member and index stores", o)
		g := NewObject()
		g.Set("x", tc.before)
		g.Set("y", tc.before)
		g.Set("x", tc.v)
		g.Set("y", tc.v)
		check("Go Set", g)

		cl, err := Clone(o)
		if err != nil {
			t.Fatal(err)
		}
		check("Clone", cl.(*Object))
		for _, share := range []bool{false, true} {
			cp, _, err := CopyMessage(o, share)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("CopyMessage(share %v)", share), cp)
			if err := Unshare(cp); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("CopyMessage(share %v) and Unshare", share), cp)
		}

		data, err := AppendJSON(nil, o)
		if f, isNum := tc.v.(float64); isNum && (math.IsNaN(f) || math.IsInf(f, 0)) {
			if err == nil {
				t.Errorf("%s: JSON encoded as %s, want an error", tc.name, data)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, dec := range []*JSONDecoder{{}, NewJSONDecoder()} {
			back, err := dec.DecodeFields(data)
			if err != nil {
				t.Fatalf("%s: decoding %s: %v", tc.name, data, err)
			}
			check("JSON "+string(data), back)
		}
	}
}

// An object FromGo builds from a Go map holds its fields in sorted key
// order, whatever order the map iterates in: a co-located service's result
// walks (Field, Snapshot) and encodes the same on every call. Sorting a map
// of up to eight keys — every standard handler's result — allocates
// nothing beyond the object itself.
func TestFromGoSortedFields(t *testing.T) {
	result := map[string]any{"state": "tracking", "reps": 3.0, "calibrated": true, "phase": "down",
		"count": 2.0, "fallen": false, "alert": "", "label": "squat"}
	var firstJSON []byte
	for i := 0; i < 100; i++ {
		obj := FromGo(result).(*Object)
		var got []string
		for j := range obj.Len() {
			k, _ := obj.Field(j)
			got = append(got, k)
		}
		if !slices.IsSorted(got) || len(got) != len(result) {
			t.Fatalf("conversion %d holds its fields in order %v", i, got)
		}
		wire, err := AppendJSON(nil, obj)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstJSON = wire
		} else if !bytes.Equal(wire, firstJSON) {
			t.Fatalf("conversion %d encodes as %s, the first as %s", i, wire, firstJSON)
		}
	}

	for n := 1; n <= indexedFields; n++ {
		m := map[string]Value{}
		for i := 0; i < n; i++ {
			m[fmt.Sprint("k", i)] = float64(i)
		}
		keys := make([]unique.Handle[string], 0, n)
		for k := range m {
			keys = append(keys, unique.Make(k))
		}
		var keep Value
		converted := testing.AllocsPerRun(50, func() { keep = FromGo(m) })
		byHand := testing.AllocsPerRun(50, func() {
			o := NewObjectSize(n + 1)
			for _, k := range keys {
				o.SetNum(k, 1)
			}
			keep = o
		})
		_ = keep // both builds escape, as a result does
		if converted > byHand && !raceEnabled {
			t.Errorf("FromGo of %d keys: %.0f allocs, the object alone %.0f", n, converted, byHand)
		}
	}
}
