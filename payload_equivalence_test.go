package videopipe_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"videopipe/internal/script"
)

// Payloads stopped being converted to a map[string]any tree on their way
// through call_module and call_service. What the conversion used to
// determine must not have moved: the output-budget charge, the bytes on the
// wire and the value the receiver sees. This test replays the old pipeline
// — script.ToGo, the any-tree size walk, encoding/json — as the oracle
// beside the new one over every message every shipped module emits.

// oraclePayloadSize is the charge as it was computed on the converted tree.
func oraclePayloadSize(v any) int {
	switch x := v.(type) {
	case string:
		return len(x) + 16
	case []any:
		n := 24
		for _, e := range x {
			n += 16 + oraclePayloadSize(e)
		}
		return n
	case map[string]any:
		n := 48
		for k, e := range x {
			n += 16 + len(k) + oraclePayloadSize(e)
		}
		return n
	case nil:
		return 0
	default:
		return 8
	}
}

func TestPayloadEquivalenceOnExamples(t *testing.T) {
	for where, src := range collectSoundnessModules(t) {
		t.Run(where, func(t *testing.T) {
			checked := 0
			check := func(msg script.Value) {
				if msg == nil {
					return
				}
				checked++
				plain, err := script.ToGo(msg)
				if err != nil {
					t.Fatalf("ToGo: %v", err)
				}
				size, err := script.PayloadSize(msg, -1)
				if want := int64(oraclePayloadSize(plain)); err != nil || size != want {
					t.Errorf("PayloadSize = %d, %v; the any-tree walk charges %d for %v", size, err, want, plain)
				}
				want, _ := json.Marshal(plain)
				wire, err := script.AppendJSON(nil, msg)
				if err != nil || !bytes.Equal(wire, want) {
					t.Errorf("AppendJSON:\n got %s (err %v)\nwant %s", wire, err, want)
				}
				for how, received := range map[string]func() (script.Value, error){
					"local clone": func() (script.Value, error) { return script.Clone(msg) },
					"wire scan":   func() (script.Value, error) { return script.ParseJSON(wire) },
				} {
					got, err := received()
					if err != nil {
						t.Fatalf("%s: %v", how, err)
					}
					if back, _ := script.ToGo(got); !reflect.DeepEqual(back, plain) {
						t.Errorf("%s delivers %v, the old path delivered %v", how, back, plain)
					}
				}
			}

			ctx := script.NewContext()
			soundnessStub(ctx)
			service, _ := ctx.Global("call_service")
			ctx.Bind("call_service", func(args []script.Value) (script.Value, error) {
				if len(args) >= 2 {
					check(args[1])
				}
				return service.(script.HostFunc)(args)
			})
			ctx.Bind("call_module", func(args []script.Value) (script.Value, error) {
				if len(args) >= 2 {
					check(args[1])
				}
				return nil, nil
			})
			if err := ctx.Load(src); err != nil {
				t.Fatalf("load: %v", err)
			}
			if ctx.Has("init") {
				if _, err := ctx.Call("init"); err != nil {
					t.Fatalf("init: %v", err)
				}
			}
			for seq := 0; seq < 30; seq++ {
				if _, err := ctx.Call("event_received", soundnessMessage(seq)); err != nil {
					t.Fatalf("event %d: %v", seq, err)
				}
			}
			t.Logf("%d payloads checked", checked)
		})
	}
}

// TestPayloadSizeMatchesOracle holds the charge to the oracle on the cases
// the shipped modules do not produce — empty containers, function-valued
// fields, opaque host values, non-ASCII keys — and pins the early stop: a
// bound the value fits changes nothing, a bound it does not fit is reported
// as exceeded.
func TestPayloadSizeMatchesOracle(t *testing.T) {
	c := script.NewContext()
	c.Bind("host", func([]script.Value) (script.Value, error) { return nil, nil })
	for _, src := range []string{
		`null`, `true`, `0`, `-1.5`, `""`, `"héllo"`, `[]`, `({})`,
		`[1, "two", null, false, [3, [4]]]`,
		`({a: 1, bb: "x", ccc: null, d: {e: [], f: {}}, "clé": 2})`,
		`({frame_ref: 12, pose: {keypoints: [{name: "nose", x: 1.5, y: 2}], score: 0.5}, seq: 3})`,
		`({fn: function () {}, named: function f() {}, host: host, in_list: [function () {}, 1]})`,
		`function g() {} g`, `host`,
	} {
		v, err := c.Eval(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		plain, err := script.ToGo(v)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(oraclePayloadSize(plain))
		for _, max := range []int64{-1, want, want + 100} {
			if got, err := script.PayloadSize(v, max); err != nil || got != want {
				t.Errorf("PayloadSize(%s, max %d) = %d, %v; oracle %d", src, max, got, err, want)
			}
		}
		if want > 0 {
			if got, _ := script.PayloadSize(v, want-1); got <= want-1 {
				t.Errorf("PayloadSize(%s, max %d) = %d: not reported as over", src, want-1, got)
			}
		}
	}
	// An opaque host value travels as null, so costs only its slot.
	if got, _ := script.PayloadSize(script.NewArray(struct{}{}), -1); got != 24+16 {
		t.Errorf("PayloadSize([opaque]) = %d, want 40", got)
	}
}
