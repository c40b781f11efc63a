package videopipe_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"videopipe"
	"videopipe/internal/apps"
	"videopipe/internal/script"
)

// Soundness golden test for pipecost: for every PipeScript module we ship
// — embedded in the example programs, generated by the built-in apps, or
// included by the on-disk example configs — the static worst-case
// instruction bound must dominate the interpreter's measured per-event
// count. The interpreter's counter (script.<module>.instructions meter at
// runtime) is the ground truth; a failure here means the cost model
// undercounts some construct and is no longer sound.

// collectSoundnessModules gathers every shipped module source keyed by a
// stable "where it came from" label.
func collectSoundnessModules(t *testing.T) map[string]string {
	t.Helper()
	modules := collectExampleScripts(t)

	for _, cfg := range []videopipe.PipelineConfig{
		apps.FitnessConfig("fitness", 20, "squat"),
		apps.GestureConfig("gesture", 15, "clap"),
		apps.FallConfig("fall", 15),
	} {
		for _, m := range cfg.Modules {
			modules["apps/"+cfg.Name+"/"+m.Name] = m.Source
		}
	}

	matches, err := filepath.Glob("examples/configs/*.cfg")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no example configs found under examples/configs")
	}
	for _, path := range matches {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		cfg, err := videopipe.ParseConfig(name, string(text), videopipe.FileResolver(filepath.Dir(path)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, m := range cfg.Modules {
			modules[path+"/"+m.Name] = m.Source
		}
	}
	return modules
}

// soundnessStub binds the host API with rich, varying results so the
// corpus modules exercise both sides of their branches while running. It
// returns the call_service it bound, for a test that wraps it.
func soundnessStub(ctx *script.Context) (callService script.HostFunc) {
	calls := 0
	callService = func(args []script.Value) (script.Value, error) {
		calls++
		kp := func(x, y float64) script.Value {
			p := script.NewObject()
			p.Set("x", x)
			p.Set("y", y)
			return p
		}
		pose := script.NewObject()
		pose.Set("keypoints", &script.Array{Elems: []script.Value{kp(0.5, 0.2), kp(0.4, 0.5), kp(0.6, 0.9)}})
		pose.Set("label", "squat")

		box := script.NewObject()
		box.Set("min_x", 0.1)
		box.Set("min_y", 0.1)
		box.Set("max_x", 0.8)
		box.Set("max_y", 0.9)

		r := script.NewObject()
		r.Set("found", calls%5 != 0)
		r.Set("confidence", 0.9)
		r.Set("pose", pose)
		r.Set("box", box)
		if calls%2 == 0 {
			r.Set("activity", "clap")
		} else {
			r.Set("activity", "squat")
		}
		r.Set("actionable", calls%3 != 0)
		r.Set("state", "tracking")
		r.Set("reps", float64(calls))
		r.Set("count", float64(calls%4))
		r.Set("fallen", calls%4 == 0)
		r.Set("alert", calls%8 == 0)
		return r, nil
	}
	ctx.Bind("call_service", callService)
	ctx.Bind("call_module", func(args []script.Value) (script.Value, error) { return nil, nil })
	ctx.Bind("metric", func(args []script.Value) (script.Value, error) { return nil, nil })
	ctx.Bind("log", func(args []script.Value) (script.Value, error) { return nil, nil })
	ctx.Bind("now_ms", func(args []script.Value) (script.Value, error) { return float64(12345), nil })
	ctx.Bind("frame_done", func(args []script.Value) (script.Value, error) { return nil, nil })
	ctx.Bind("device_name", func(args []script.Value) (script.Value, error) { return "phone", nil })
	return callService
}

// soundnessMessage synthesizes the union of the event fields the shipped
// modules read, varied by sequence number for branch coverage.
func soundnessMessage(seq int) script.Value {
	pose := script.NewObject()
	kp := script.NewObject()
	kp.Set("x", 0.5)
	kp.Set("y", float64(seq)/25)
	pose.Set("keypoints", &script.Array{Elems: []script.Value{kp, kp, kp}})
	pose.Set("label", "squat")

	msg := script.NewObject()
	msg.Set("frame_ref", fmt.Sprintf("f%d", seq))
	msg.Set("captured_ms", float64(1000+seq*33))
	msg.Set("seq", float64(seq))
	msg.Set("pose", pose)
	if seq%2 == 0 {
		msg.Set("activity", "clap")
		msg.Set("gesture", "clap")
	} else {
		msg.Set("activity", "squat")
		msg.Set("gesture", "wave")
	}
	msg.Set("confidence", 0.8)
	msg.Set("reps", float64(seq))
	msg.Set("count", float64(seq%5))
	msg.Set("state", "tracking")
	msg.Set("fallen", seq%4 == 0)
	msg.Set("alert", seq%8 == 0)
	msg.Set("found", seq%3 != 0)
	return msg
}

// TestCostSoundnessOnExamples is the acceptance gate: every handler of
// every shipped module is statically boundable, and each static bound
// dominates the measured instruction count over a varied event stream.
func TestCostSoundnessOnExamples(t *testing.T) {
	for where, src := range collectSoundnessModules(t) {
		t.Run(where, func(t *testing.T) {
			handlers := script.Analyze(src, script.Options{}).Cost.Handlers
			if len(handlers) == 0 {
				t.Fatal("cost analysis produced no handlers — unparseable source?")
			}
			for _, h := range handlers {
				if !h.Bounded {
					t.Errorf("handler %s not statically boundable: %v", h.Name, h.Reasons)
				}
			}

			ctx := script.NewContext()
			soundnessStub(ctx)
			if err := ctx.Load(src); err != nil {
				t.Fatalf("load: %v", err)
			}
			// Handlers is sorted by name: the load, then event_received,
			// then init, which runs before any event.
			var h script.HandlerCost // event_received's
			for _, hc := range handlers {
				switch hc.Name {
				case script.LoadHandler:
					if got := ctx.LastInstructions(); hc.Bounded && got > hc.Steps {
						t.Errorf("load: measured %d > static bound %d", got, hc.Steps)
					}
				case "event_received":
					h = hc
				case "init":
					if _, err := ctx.Call("init"); err != nil {
						t.Fatalf("init: %v", err)
					}
					if got := ctx.LastInstructions(); hc.Bounded && got > hc.Steps {
						t.Errorf("init: measured %d > static bound %d", got, hc.Steps)
					}
				}
			}
			if h.Name != "event_received" {
				t.Fatal("module defines no event_received")
			}
			for seq := 0; seq < 25; seq++ {
				if _, err := ctx.Call("event_received", soundnessMessage(seq)); err != nil {
					t.Fatalf("event %d: %v", seq, err)
				}
				if got := ctx.LastInstructions(); h.Bounded && got > h.Steps {
					t.Errorf("event %d: measured %d > static bound %d", seq, got, h.Steps)
				}
			}
		})
	}
}
