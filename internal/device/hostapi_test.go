package device

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"videopipe/internal/script"
)

// The static analyzer (pipevet) catches literal-target mistakes at deploy
// time; targets computed at runtime survive to the host API. These tests
// pin down that the surviving runtime errors still carry a line:col
// Position — the paper's debuggability story must not regress now that the
// shared signature table owns the arity/type checks.

// callEvent runs the module's event_received directly and returns the
// script error, bypassing the event loop (which swallows errors into the
// module error meter).
func callEvent(t *testing.T, m *Module, msg map[string]any) error {
	t.Helper()
	_, err := m.workers[0].ctx.Call("event_received", script.FromGo(msg))
	return err
}

func TestRuntimeErrorsKeepPosition(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)

	cases := []struct {
		name     string
		src      string
		line     int
		fragment string
	}{
		{
			// Dynamic module target: no literal for the analyzer to check,
			// the route lookup fails at runtime.
			name: "dynamic call_module target",
			src: "function event_received(message) {\n" +
				"\tvar target = \"gh\" + \"ost\";\n" +
				"\tcall_module(target, {});\n" +
				"}",
			line:     3,
			fragment: `has no edge to "ghost"`,
		},
		{
			// Dynamic service target: the allowed-set check fires at runtime.
			name: "dynamic call_service target",
			src: "function event_received(message) {\n" +
				"\tvar svc = message.which;\n" +
				"\tcall_service(svc, {});\n" +
				"}",
			line:     3,
			fragment: "is not configured to use service",
		},
		{
			// Dynamic bad argument type: the shared signature table rejects
			// it with the module's call position intact.
			name: "dynamic metric value type",
			src: "function event_received(message) {\n" +
				"\tmetric(\"stage\", message.which);\n" +
				"}",
			line:     2,
			fragment: "metric: value must be a number",
		},
	}

	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := d.SpawnModule(ModuleSpec{
				Name:     fmt.Sprintf("m%d", i),
				Source:   tc.src,
				Services: []string{"some_service"},
			})
			if err != nil {
				t.Fatalf("SpawnModule: %v", err)
			}
			err = callEvent(t, m, map[string]any{"which": "forbidden"})
			if err == nil {
				t.Fatal("no runtime error")
			}
			var re *script.RuntimeError
			if !errors.As(err, &re) {
				t.Fatalf("error type %T, want *script.RuntimeError: %v", err, err)
			}
			if re.Pos.Line != tc.line || re.Pos.Col == 0 {
				t.Errorf("position = %s, want line %d with a column", re.Pos, tc.line)
			}
			if want := fmt.Sprintf("%d:%d", re.Pos.Line, re.Pos.Col); !strings.Contains(re.Error(), want) {
				t.Errorf("error text %q lacks line:col %q", re.Error(), want)
			}
			if !strings.Contains(re.Error(), tc.fragment) {
				t.Errorf("error text %q lacks %q", re.Error(), tc.fragment)
			}
		})
	}
}
