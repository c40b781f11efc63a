package videopipe_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"videopipe/internal/script"
)

// Payloads stopped being converted to a map[string]any tree on their way
// through call_module and call_service. What the conversion used to
// determine must not have moved: the output-budget charge, the bytes on the
// wire and the value the receiver sees. This test replays the old pipeline
// — the any tree (read back from the payload's JSON by encoding/json), the
// any-tree size walk, encoding/json — as the oracle beside the new one over
// every message every shipped module emits.

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

// oracleTree is the map[string]any tree the old pipeline converted a
// payload to, read back from its JSON.
func oracleTree(t *testing.T, wire []byte) any {
	t.Helper()
	var plain any
	if err := json.Unmarshal(wire, &plain); err != nil {
		t.Fatalf("encoding/json refuses %s: %v", wire, err)
	}
	return plain
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
				wire, err := script.AppendJSON(nil, msg)
				if err != nil {
					t.Fatalf("AppendJSON: %v", err)
				}
				plain := oracleTree(t, wire)
				size, err := script.PayloadSize(msg, -1)
				if want := int64(oraclePayloadSize(plain)); err != nil || size != want {
					t.Errorf("PayloadSize = %d, %v; the any-tree walk charges %d for %v", size, err, want, plain)
				}
				if want, _ := json.Marshal(plain); !bytes.Equal(wire, want) {
					t.Errorf("AppendJSON:\n got %s\nwant %s", wire, want)
				}
				for how, received := range map[string]func() (script.Value, error){
					"local clone": func() (script.Value, error) { return script.Clone(msg) },
					"wire scan":   func() (script.Value, error) { return script.ParseJSON(wire) },
				} {
					got, err := received()
					if err != nil {
						t.Fatalf("%s: %v", how, err)
					}
					if back, _ := script.AppendJSON(nil, got); !bytes.Equal(back, wire) {
						t.Errorf("%s delivers %s, the old path delivered %s", how, back, wire)
					}
				}
			}

			ctx := script.NewContext()
			service := soundnessStub(ctx)
			ctx.Bind("call_service", func(args []script.Value) (script.Value, error) {
				if len(args) >= 2 {
					check(args[1])
				}
				return service(args)
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
	for _, src := range []string{
		`null`, `true`, `0`, `-1.5`, `""`, `"héllo"`, `[]`, `({})`,
		`[1, "two", null, false, [3, [4]]]`,
		`({a: 1, bb: "x", ccc: null, d: {e: [], f: {}}, "clé": 2})`,
		`({frame_ref: 12, pose: {keypoints: [{name: "nose", x: 1.5, y: 2}], score: 0.5}, seq: 3})`,
		`({fn: function () {}, named: function f() {}, host: host, in_list: [function () {}, 1]})`,
		`(function g() {})`, `host`,
	} {
		c := script.NewContext()
		c.Bind("host", func([]script.Value) (script.Value, error) { return nil, nil })
		if err := c.Load("function value() { return " + src + "; }"); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		v, err := c.Call("value")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		wire, err := script.AppendJSON(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(oraclePayloadSize(oracleTree(t, wire)))
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
	if got, _ := script.PayloadSize(&script.Array{Elems: []script.Value{struct{}{}}}, -1); got != 24+16 {
		t.Errorf("PayloadSize([opaque]) = %d, want 40", got)
	}
}

// A message literal written straight into call_module or call_service is
// evaluated into its call site's scratch object, lent to the host call and
// emptied after it (script.Signature.Lends). That must be invisible: over
// every shipped module, a borrowed literal sends the same bytes and pays the
// same output charge, and each event the same steps, as a fresh one. The
// fresh run loads the module with a function that rebinds both host names
// and is never called: a module that writes those globals lends nothing.
func TestLendPayloadEquivalenceOnExamples(t *testing.T) {
	const fresh = "\nfunction never_called() { call_module = call_module; call_service = call_service; }\n"
	for where, src := range collectSoundnessModules(t) {
		t.Run(where, func(t *testing.T) {
			var runs [2][]string
			var lent [2]int
			for i, s := range []string{src, src + fresh} {
				ctx := script.NewContext()
				service := soundnessStub(ctx)
				seen := map[*script.Object]bool{}
				record := func(args []script.Value) error {
					if len(args) < 2 || args[1] == nil {
						return nil
					}
					wire, err := script.AppendJSON(nil, args[1])
					if err != nil {
						return err
					}
					size, err := script.PayloadSize(args[1], -1)
					if err != nil {
						return err
					}
					if o, ok := args[1].(*script.Object); ok {
						if seen[o] {
							lent[i]++
						}
						seen[o] = true
					}
					runs[i] = append(runs[i], fmt.Sprintf("%s charged %d", wire, size))
					return nil
				}
				ctx.Bind("call_service", func(args []script.Value) (script.Value, error) {
					if err := record(args); err != nil {
						return nil, err
					}
					return service(args)
				})
				ctx.Bind("call_module", func(args []script.Value) (script.Value, error) {
					return nil, record(args)
				})
				if err := ctx.Load(s); err != nil {
					t.Fatalf("load: %v", err)
				}
				if ctx.Has("init") {
					if _, err := ctx.Call("init"); err != nil {
						t.Fatalf("init: %v", err)
					}
				}
				for seq := 0; seq < 30; seq++ {
					_, err := ctx.Call("event_received", soundnessMessage(seq))
					runs[i] = append(runs[i], fmt.Sprintf("event %d: %d steps, %v", seq, ctx.LastInstructions(), err))
				}
			}
			if a, b := strings.Join(runs[0], "\n"), strings.Join(runs[1], "\n"); a != b {
				t.Errorf("borrowed literals:\n%s\nfresh literals:\n%s", a, b)
			}
			if lent[1] != 0 {
				t.Errorf("the fresh run passed one object to %d host calls", lent[1])
			}
			t.Logf("%d host calls, %d of them on a reused scratch", len(runs[0])-30, lent[0])
		})
	}
}
