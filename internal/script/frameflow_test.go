package script

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFrameFlowCorpus is the PV011 golden corpus — the script-level
// mirror of vpvet's framerelease check: a path through event_received
// that performs a call_service must forward the frame (call_module),
// drop it (frame_done), or hand it to a helper that does, before the
// handler returns.
func TestFrameFlowCorpus(t *testing.T) {
	positives := []struct {
		name string
		src  string
		line int // line of the offending call_service
	}{
		{
			name: "held across plain fall-off",
			src: `function event_received(message) {
	var r = call_service("pose_detector", {frame_ref: message.frame_ref});
	metric("found", num(r.found));
}`,
			line: 2,
		},
		{
			name: "resolved on one branch only",
			src: `function event_received(message) {
	var r = call_service("pose_detector", {frame_ref: message.frame_ref});
	if (r.found) {
		frame_done();
	}
}`,
			line: 2,
		},
		{
			name: "early return skips resolution",
			src: `function event_received(message) {
	var r = call_service("pose_detector", {frame_ref: message.frame_ref});
	if (!r.found) {
		return;
	}
	call_module("next", {frame_ref: message.frame_ref, pose: r.pose});
}`,
			line: 2,
		},
		{
			name: "return in a later iteration of an ordinary loop",
			src: `function event_received(message) {
	var i = 0;
	while (i < 3) {
		if (i > 0) {
			return;
		}
		var r = call_service("pose_detector", {frame_ref: message.frame_ref});
		i++;
	}
	frame_done();
}`,
			line: 7,
		},
		{
			name: "switch without default leaks the fall-through",
			src: `function event_received(message) {
	var r = call_service("classifier", {frame_ref: message.frame_ref});
	switch (r.label) {
	case "person":
		call_module("alert", {frame_ref: message.frame_ref});
		break;
	}
}`,
			line: 2,
		},
		{
			name: "break out of while (true) carries the held frame",
			src: `function event_received(message) {
	while (true) {
		var r = call_service("pose_detector", {frame_ref: message.frame_ref});
		break;
	}
}`,
			line: 3,
		},
		{
			name: "break out of a counted for skips the forward",
			src: `function event_received(message) {
	for (var i = 0; i < 3; i++) {
		var r = call_service("classifier", {frame_ref: message.frame_ref, band: i});
		if (r.found) break;
		call_module("next", {frame_ref: message.frame_ref, band: i});
	}
}`,
			line: 3,
		},
		{
			name: "break out of a switch case skips the default's drop",
			src: `function event_received(message) {
	switch (message.kind) {
	case "a":
		var r = call_service("classifier", {frame_ref: message.frame_ref});
		break;
	default:
		frame_done();
	}
}`,
			line: 4,
		},
		{
			name: "a local frame_done is not the host's",
			src: `function event_received(message) {
	var frame_done = function() { return null; };
	var r = call_service("pose_detector", {frame_ref: message.frame_ref});
	frame_done();
}`,
			line: 3,
		},
		{
			name: "finally's return overrides a throw holding the frame",
			src: `function event_received(message) {
	try {
		var r = call_service("pose_detector", {frame_ref: message.frame_ref});
		throw "no subject";
	} finally {
		return;
	}
}`,
			line: 3,
		},
		{
			name: "a break in a later iteration of while (true) carries the held frame",
			src: `function event_received(message) {
	var n = 0;
	while (true) {
		if (n > 0) { break; }
		var r = call_service("pose_detector", {frame_ref: message.frame_ref});
		n++;
	}
}`,
			line: 5,
		},
		{
			name: "a finally that does not resolve leaves the break's frame held",
			src: `function event_received(message) {
	while (true) {
		try {
			var r = call_service("pose_detector", {frame_ref: message.frame_ref});
			break;
		} finally {
			metric("tried", 1);
		}
	}
}`,
			line: 4,
		},
	}
	for _, tc := range positives {
		t.Run(tc.name, func(t *testing.T) {
			rep := Analyze(tc.src, Options{})
			var hit *Diagnostic
			for i := range rep.Diagnostics {
				if rep.Diagnostics[i].Code == CodeFrameHeld {
					hit = &rep.Diagnostics[i]
					break
				}
			}
			if hit == nil {
				t.Fatalf("no %s diagnostic; got %v", CodeFrameHeld, rep.Diagnostics)
			}
			if hit.Severity != SeverityWarning {
				t.Errorf("severity = %v, want warning", hit.Severity)
			}
			if hit.Pos.Line != tc.line {
				t.Errorf("position = %s, want line %d (%s)", hit.Pos, tc.line, hit.Message)
			}
			if !strings.Contains(hit.Message, "call_service") {
				t.Errorf("message does not name call_service: %s", hit.Message)
			}
			// One finding per offending call, even with several leaky exits.
			n := 0
			for _, d := range rep.Diagnostics {
				if d.Code == CodeFrameHeld {
					n++
				}
			}
			if n != 1 {
				t.Errorf("got %d PV011 diagnostics, want 1: %v", n, rep.Diagnostics)
			}
		})
	}

	negatives := []struct {
		name string
		src  string
	}{
		{
			name: "while (true) is left only by its resolving breaks",
			src: `function event_received(message) {
	var r = call_service("pose_detector", {frame_ref: message.frame_ref});
	while (true) {
		if (r.found) {
			call_module("next", {frame_ref: message.frame_ref, pose: r.pose});
			break;
		}
		frame_done();
		break;
	}
}`,
		},
		{
			name: "for (;;) with no break is left only by a resolving return",
			src: `function event_received(message) {
	var r = call_service("pose_detector", {frame_ref: message.frame_ref});
	for (;;) {
		frame_done();
		return;
	}
}`,
		},
		{
			name: "branch drops, fall-through forwards",
			src: `function event_received(message) {
	var r = call_service("pose_detector", {frame_ref: message.frame_ref});
	if (!r.found) {
		frame_done();
		return;
	}
	call_module("next", {frame_ref: message.frame_ref, pose: r.pose});
}`,
		},
		{
			name: "resolving helper function",
			src: `function finish(ok) {
	metric("ok", num(ok));
	frame_done();
}
function event_received(message) {
	var r = call_service("pose_detector", {frame_ref: message.frame_ref});
	finish(r.found);
}`,
		},
		{
			name: "throw path is reclaimed by the runtime",
			src: `function event_received(message) {
	var r = call_service("pose_detector", {frame_ref: message.frame_ref});
	if (!r.found) {
		throw "no subject";
	}
	call_module("next", {frame_ref: message.frame_ref});
}`,
		},
		{
			name: "no call_service means no PV011 obligation",
			src: `function event_received(message) {
	metric("seen", message.seq);
}`,
		},
		{
			name: "call_service inside a loop, resolved after",
			src: `function event_received(message) {
	var hits = 0;
	for (var i = 0; i < 3; i++) {
		var r = call_service("classifier", {frame_ref: message.frame_ref, band: i});
		if (r.found) {
			hits++;
		}
	}
	metric("hits", hits);
	frame_done();
}`,
		},
		{
			name: "a case falls through into the case that drops",
			src: `function event_received(message) {
	switch (message.kind) {
	case "a":
		var r = call_service("classifier", {frame_ref: message.frame_ref});
	case "b":
		frame_done();
		break;
	}
}`,
		},
		{
			name: "finally drops the frame a return leaves with",
			src: `function event_received(message) {
	var r = call_service("pose_detector", {frame_ref: message.frame_ref});
	try {
		return;
	} finally {
		frame_done();
	}
}`,
		},
		{
			name: "finally drops the frame a break leaves with",
			src: `function event_received(message) {
	while (true) {
		var r = call_service("pose_detector", {frame_ref: message.frame_ref});
		try {
			break;
		} finally {
			frame_done();
		}
	}
}`,
		},
		{
			name: "a local call_service is not the host's",
			src: `function event_received(message) {
	var call_service = function(a, b) { return null; };
	var r = call_service("pose_detector", {frame_ref: message.frame_ref});
	metric("found", num(r == null));
}`,
		},
		{
			name: "a module value named call_service is not the host's",
			src: `var call_service = function(a, b) { return null; };
function event_received(message) {
	var r = call_service("pose_detector", {frame_ref: message.frame_ref});
}`,
		},
	}
	for _, tc := range negatives {
		t.Run(tc.name, func(t *testing.T) {
			rep := Analyze(tc.src, Options{})
			for _, d := range rep.Diagnostics {
				if d.Code == CodeFrameHeld {
					t.Errorf("unexpected PV011: %s", d)
				}
			}
		})
	}
}

// A loop nested in other loops is walked a bounded number of times, not
// twice per enclosing loop: forty nested loops, each adding a call_service
// its later iterations carry to its break, analyze at once, and every
// call_service still reaches the handler's exit through the breaks (and,
// for loops with a test, the tests) of the loops around it.
func TestFrameFlowNestedEndlessLoops(t *testing.T) {
	const depth = 40
	for _, head := range []string{"while (true)", "while (message.b)"} {
		var src strings.Builder
		src.WriteString("function event_received(message) {\n")
		for i := 0; i < depth; i++ {
			src.WriteString(head + " {\nif (message.a) { break; }\n")
			src.WriteString("var r = call_service(\"pose_detector\", {frame_ref: message.frame_ref});\n")
		}
		src.WriteString(strings.Repeat("}\n", depth+1))
		done := make(chan Report, 1)
		go func() { done <- Analyze(src.String(), Options{}) }()
		select {
		case rep := <-done:
			held := 0
			for _, d := range rep.Diagnostics {
				if d.Code == CodeFrameHeld {
					held++
				}
			}
			if held != depth {
				t.Errorf("%s: %d PV011 diagnostics, want one per call_service (%d)", head, held, depth)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%d nested %s loops did not analyze within 20 s", depth, head)
		}
	}
}

// TestFrameFlowDiagnosticShape pins the rendered diagnostic the -lint CLI
// prints for PV011.
func TestFrameFlowDiagnosticShape(t *testing.T) {
	src := `function event_received(message) {
	var r = call_service("svc", {frame_ref: message.frame_ref});
	log(r);
}`
	rep := Analyze(src, Options{})
	for _, d := range rep.Diagnostics {
		if d.Code != CodeFrameHeld {
			continue
		}
		got := d.String()
		want := fmt.Sprintf("%s: warning %s:", d.Pos, CodeFrameHeld)
		if !strings.HasPrefix(got, want) {
			t.Errorf("String() = %q, want prefix %q", got, want)
		}
		return
	}
	t.Fatal("no PV011 diagnostic produced")
}
