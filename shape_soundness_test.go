package videopipe_test

import (
	"testing"

	"videopipe/internal/script"
)

// Soundness golden test for pipetype: for every PipeScript module we ship,
// the statically inferred payload shape for each call_module target must
// contain (in the lattice sense) every payload the module actually emits
// while running over a varied event stream. The runtime observation is the
// ground truth; a failure here means the shape inference under-approximates
// some construct and PV015/PV016 could reject working pipelines.

// shapeObservingStub is soundnessStub with call_module rebound to record
// the shape of every emitted payload, joined per literal target. A missing
// or nil payload is recorded as the empty object, matching the empty body
// the runtime delivers for one-argument calls.
func shapeObservingStub(ctx *script.Context, observed map[string]*script.Shape) {
	soundnessStub(ctx)
	ctx.Bind("call_module", func(args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return nil, nil
		}
		target, ok := args[0].(string)
		if !ok {
			return nil, nil
		}
		var payload script.Value = script.NewObject()
		if len(args) >= 2 && args[1] != nil {
			payload = args[1]
		}
		observed[target] = observed[target].Join(script.ShapeOf(payload))
		return nil, nil
	})
}

// TestShapeSoundnessOnExamples drives every shipped module through the
// same varied event stream the cost soundness test uses and asserts
// inferred ⊇ observed for each emission target.
func TestShapeSoundnessOnExamples(t *testing.T) {
	for where, src := range collectSoundnessModules(t) {
		t.Run(where, func(t *testing.T) {
			rep := script.AnalyzeShapes(src)

			observed := map[string]*script.Shape{}
			ctx := script.NewContext()
			shapeObservingStub(ctx, observed)
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

			for target, observed := range observed {
				inferred := rep.Emits[target].Join(rep.DynamicEmit)
				if inferred == nil {
					t.Errorf("target %q: runtime emitted %s but inference saw no emission",
						target, observed)
					continue
				}
				if !inferred.Contains(observed) {
					t.Errorf("target %q: inferred shape %s does not contain observed %s",
						target, inferred, observed)
				}
			}
		})
	}
}
