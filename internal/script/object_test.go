package script

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"testing"
)

// Objects are compared with the outside world's eyes — ToGo, JSON, the
// stdlib — never through their field table, whose slot order is free to
// change.

// objectOracle checks o against want through every read a script or a Go
// consumer has: Get/Lookup on every key ever used, Len, SortedKeys, ToGo,
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
	got, err := ToGo(o)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(plain) {
		t.Fatalf("ToGo() = %v, want %v", got, plain)
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
	v, err := c.Eval(`
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
	f.Fuzz(func(t *testing.T, ops []byte) {
		universe := keyUniverse(41)
		o, want := NewObjectSize(int(len(ops)%12)), map[string]Value{}
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
