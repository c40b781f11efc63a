package script

import (
	"strings"
	"testing"
)

func shapesOf(t *testing.T, src string) ShapeReport {
	t.Helper()
	rep := Analyze(src, Options{})
	for _, d := range rep.Diagnostics {
		if d.Severity == SeverityError {
			t.Fatalf("unexpected error diagnostic: %s", d)
		}
	}
	return rep.Shapes
}

func TestShapeEmitLiteralObject(t *testing.T) {
	rep := shapesOf(t, `
function event_received(m) {
    call_module("sink", {frame_ref: m.frame_ref, count: 1, label: "hi"});
}`)
	s := rep.Emits["sink"]
	if s == nil {
		t.Fatal("no emit shape for sink")
	}
	if s.Open || s.IsTop() {
		t.Fatalf("literal emit should be closed, got %s", s)
	}
	if got := s.Fields["count"]; got == nil || got.Kinds != KindNumber {
		t.Errorf("count = %v, want number", got)
	}
	if got := s.Fields["label"]; got == nil || got.Kinds != KindString {
		t.Errorf("label = %v, want string", got)
	}
	if got := s.Fields["frame_ref"]; got == nil || !got.IsTop() {
		t.Errorf("frame_ref = %v, want top (message fields are unknown)", got)
	}
}

func TestShapeEmitBuiltLocal(t *testing.T) {
	rep := shapesOf(t, `
function event_received(m) {
    var out = {a: 1};
    if (m.flag) { out.b = "x"; }
    out.c = m.flag;
    call_module("sink", out);
}`)
	s := rep.Emits["sink"]
	if s == nil || s.Open || s.IsTop() {
		t.Fatalf("built local should stay closed, got %s", s)
	}
	for _, f := range []string{"a", "b", "c"} {
		if s.Fields[f] == nil {
			t.Errorf("field %s missing from %s", f, s)
		}
	}
}

func TestShapeEmitJoinAcrossBranches(t *testing.T) {
	rep := shapesOf(t, `
function event_received(m) {
    if (m.x > 0) {
        call_module("sink", {a: 1});
    } else {
        call_module("sink", {a: "s", b: true});
    }
}`)
	s := rep.Emits["sink"]
	if s == nil {
		t.Fatal("no emit shape")
	}
	if got := s.Fields["a"]; got == nil || got.Kinds != KindNumber|KindString {
		t.Errorf("a = %v, want number|string", got)
	}
	if got := s.Fields["b"]; got == nil || got.Kinds != KindBool {
		t.Errorf("b = %v, want bool", got)
	}
	if len(rep.EmitSites) != 2 {
		t.Errorf("EmitSites = %d, want 2", len(rep.EmitSites))
	}
}

func TestShapeEmitTopIsPV018(t *testing.T) {
	src := `
function event_received(m) {
    call_module("sink", m);
}`
	rep := Analyze(src, Options{})
	found := false
	for _, d := range rep.Diagnostics {
		if d.Code == CodeShapeUnknown {
			found = true
			if d.Severity != SeverityWarning {
				t.Errorf("PV018 severity = %v, want warning", d.Severity)
			}
		}
	}
	if !found {
		t.Error("forwarding the message wholesale should report PV018")
	}
	if s := rep.Shapes.Emits["sink"]; s == nil || !s.IsTop() {
		t.Errorf("emit shape = %v, want top", s)
	}
}

func TestShapeDynamicTarget(t *testing.T) {
	rep := shapesOf(t, `
function event_received(m) {
    var t = "a";
    if (m.x) { t = "b"; }
    call_module(t, {k: 1});
}`)
	if len(rep.Emits) != 0 {
		t.Errorf("Emits = %v, want none (dynamic target)", rep.Emits)
	}
	if rep.DynamicEmit == nil || rep.DynamicEmit.Fields["k"] == nil {
		t.Errorf("DynamicEmit = %v, want object{k}", rep.DynamicEmit)
	}
}

// TestShapeModuleOwnedCallModule: a module that binds call_module itself,
// as a variable or a function, calls its own code there, not the host
// binding, so the call is no emit site and no PV018.
func TestShapeModuleOwnedCallModule(t *testing.T) {
	for _, src := range []string{`
var call_module = function(t, m) { return m; };
function event_received(m) { call_module("x", m); }`, `
function call_module(t, m) { return m; }
function event_received(m) { call_module("x", m); }`} {
		rep := Analyze(src, Options{})
		if len(rep.Shapes.EmitSites) != 0 || len(rep.Shapes.Emits) != 0 {
			t.Errorf("module-owned call_module read as emits %v:%s", rep.Shapes.Emits, src)
		}
		for _, d := range rep.Diagnostics {
			if d.Code == CodeShapeUnknown {
				t.Errorf("PV018 at a module-owned call_module: %s%s", d, src)
			}
		}
	}
}

func TestShapeGlobalWidening(t *testing.T) {
	rep := shapesOf(t, `
var constant = {tag: "fixed"};
var mutated = {n: 0};
function event_received(m) {
    mutated.n = mutated.n + 1;
    call_module("sink", {c: constant.tag, v: mutated});
}`)
	s := rep.Emits["sink"]
	if s == nil {
		t.Fatal("no emit shape")
	}
	// constant.tag reads through an unwidened global: string (plus the
	// may-absent null).
	if got := s.Fields["c"]; got == nil || got.Kinds&KindString == 0 || got.IsTop() {
		t.Errorf("c = %v, want string-ish", got)
	}
	// mutated escapes via member write, so it widens to top.
	if got := s.Fields["v"]; got == nil || !got.IsTop() {
		t.Errorf("v = %v, want top (widened global)", got)
	}
}

func TestShapeFunctionReturn(t *testing.T) {
	rep := shapesOf(t, `
function build(n) {
    return {score: n * 2, ok: true};
}
function event_received(m) {
    call_module("sink", build(m.x));
}`)
	s := rep.Emits["sink"]
	if s == nil {
		t.Fatal("no emit shape")
	}
	if got := s.Fields["score"]; got == nil || got.Kinds&KindNumber == 0 {
		t.Errorf("score = %v, want number", got)
	}
	// The function may also fall off the end, so null joins in.
	if s.Kinds&KindNull == 0 {
		t.Errorf("return shape should include null, got %s", s)
	}
}

func TestShapeRecursionWidens(t *testing.T) {
	rep := shapesOf(t, `
function spin(n) {
    if (n <= 0) { return {done: true}; }
    return spin(n - 1);
}
function event_received(m) {
    call_module("sink", spin(3));
}`)
	if s := rep.Emits["sink"]; s == nil || !s.IsTop() {
		t.Errorf("recursive return = %v, want top", s)
	}
}

func TestShapeConsumedFields(t *testing.T) {
	rep := shapesOf(t, `
function event_received(message) {
    var age = now_ms() - message.captured_ms;
    if (message.label == "go") { log(age); }
    if (has(message, "maybe")) { log(1); }
    frame_done();
}`)
	c := rep.Consumed
	if !c.HasHandler || c.Dynamic {
		t.Fatalf("consumed = %+v, want handler, not dynamic", c)
	}
	if u, ok := c.Fields["captured_ms"]; !ok || u.Kinds != KindNumber {
		t.Errorf("captured_ms = %+v, want number requirement", u)
	}
	if u, ok := c.Fields["label"]; !ok || u.Kinds != 0 {
		t.Errorf("label = %+v, want any requirement", u)
	}
	if _, ok := c.Fields["maybe"]; !ok {
		t.Error("has() guard should record the field")
	}
}

func TestShapeConsumedAliasChain(t *testing.T) {
	rep := shapesOf(t, `
function event_received(m) {
    var msg = m;
    var p = msg.pose;
    log(p.x - 1);
    log(msg.seq);
}`)
	c := rep.Consumed
	if c.Dynamic {
		t.Fatal("alias chain should not be dynamic")
	}
	if _, ok := c.Fields["pose"]; !ok {
		t.Error("pose not recorded through alias")
	}
	if _, ok := c.Fields["seq"]; !ok {
		t.Error("seq not recorded through alias")
	}
}

func TestShapeConsumedInterprocedural(t *testing.T) {
	rep := shapesOf(t, `
function grade(ev) {
    return ev.confidence * 2;
}
function event_received(m) {
    log(grade(m));
}`)
	c := rep.Consumed
	if c.Dynamic {
		t.Fatal("known-callee handoff should not be dynamic")
	}
	if u, ok := c.Fields["confidence"]; !ok || u.Kinds != KindNumber {
		t.Errorf("confidence = %+v, want number via interprocedural walk", u)
	}
}

// TestShapeConsumedCallResolvesLikeTheInterpreter: the consumed side
// resolves a call's name through the resolver, as the interpreter does. A
// handler-local helper shadows the module function of that name, so the
// module function's read is not the handler's; a module-level value named
// has replaces the builtin, so has(m, "k") hands the whole message to
// module code.
func TestShapeConsumedCallResolvesLikeTheInterpreter(t *testing.T) {
	rep := shapesOf(t, `
function helper(x) { return x.secret; }
function event_received(m) {
    var helper = function(x) { return 1; };
    log(helper(m));
}`)
	if _, ok := rep.Consumed.Fields["secret"]; ok {
		t.Error("the shadowed module helper's read of secret was charged to the handler")
	}
	rep = shapesOf(t, `
var has = function(a, b) { return a; };
function event_received(m) { log(has(m, "k")); }`)
	if !rep.Consumed.Dynamic {
		t.Errorf("has() bound by the module must consume the whole message, got %+v", rep.Consumed)
	}
}

func TestShapeConsumedWholesaleEscape(t *testing.T) {
	for _, src := range []string{
		`function event_received(m) { log(json_encode(m)); }`,
		`function event_received(m) { call_module("x", m); }`,
		`function event_received(m) { for (var k of m) { log(k); } }`,
		`function event_received(m) { log(m["dy" + "n"]); }`,
	} {
		rep := shapesOf(t, src)
		if !rep.Consumed.Dynamic {
			t.Errorf("want dynamic consumption for %q", src)
		}
	}
}

func TestShapeConsumedParamReassignClearsFields(t *testing.T) {
	rep := shapesOf(t, `
function event_received(m) {
    log(m.before);
    m = {};
    log(m.after);
}`)
	c := rep.Consumed
	if !c.Dynamic {
		t.Error("reassigned param should be dynamic")
	}
	if len(c.Fields) != 0 {
		t.Errorf("reassigned param should record no fields, got %v", c.Fields)
	}
}

func TestShapePureFieldWriteIsNotARead(t *testing.T) {
	rep := shapesOf(t, `
function event_received(m) {
    m.stamp = now_ms();
    m.hops += 1;
    frame_done();
}`)
	c := rep.Consumed
	if _, ok := c.Fields["stamp"]; ok {
		t.Error("pure write recorded as a read")
	}
	if u, ok := c.Fields["hops"]; !ok || u.Kinds&KindNumber == 0 {
		t.Errorf("compound write should read: %+v", u)
	}
}

func TestShapeJoinLattice(t *testing.T) {
	num := kindShape(KindNumber)
	str := kindShape(KindString)
	j := num.Join(str)
	if !j.Contains(num) || !j.Contains(str) {
		t.Error("join must contain both inputs")
	}
	if topShape().Join(num).IsTop() != true {
		t.Error("top absorbs")
	}
	var bot *Shape
	if got := bot.Join(num); got.String() != num.String() {
		t.Errorf("bottom join = %s", got)
	}
	if bot.Contains(num) {
		t.Error("bottom contains nothing")
	}
	if !num.Contains(bot) {
		t.Error("everything contains bottom")
	}
}

func TestShapeContainsObjects(t *testing.T) {
	inferred := &Shape{Kinds: KindObject, Fields: map[string]*Shape{
		"a": kindShape(KindNumber),
		"b": topShape(),
	}}
	observed := &Shape{Kinds: KindObject, Fields: map[string]*Shape{
		"a": kindShape(KindNumber),
	}}
	if !inferred.Contains(observed) {
		t.Error("closed subset should be contained (may-union fields)")
	}
	extra := &Shape{Kinds: KindObject, Fields: map[string]*Shape{
		"z": kindShape(KindNumber),
	}}
	if inferred.Contains(extra) {
		t.Error("unknown field in a closed shape must not be contained")
	}
	open := &Shape{Kinds: KindObject, Open: true}
	if !open.Contains(extra) {
		t.Error("open shape contains any fields")
	}
}

func TestShapeOfRuntimeValues(t *testing.T) {
	obj := NewObject()
	obj.Set("n", float64(3))
	obj.Set("s", "x")
	obj.Set("a", &Array{Elems: []Value{float64(1), "two"}})
	s := ShapeOf(obj)
	if s.Kinds != KindObject {
		t.Fatalf("kinds = %s", s.Kinds)
	}
	if s.Fields["n"].Kinds != KindNumber || s.Fields["s"].Kinds != KindString {
		t.Errorf("scalar fields wrong: %s", s)
	}
	if s.Fields["a"].Elem.Kinds != KindNumber|KindString {
		t.Errorf("array elem = %s", s.Fields["a"].Elem)
	}
	if got := ShapeOf(nil); got.Kinds != KindNull {
		t.Errorf("ShapeOf(nil) = %s", got)
	}
}

func TestShapeStringDeterministic(t *testing.T) {
	s := &Shape{Kinds: KindObject | KindNumber, Fields: map[string]*Shape{
		"b": kindShape(KindString),
		"a": kindShape(KindBool),
	}}
	want := "number|object{a: bool, b: string}"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if !strings.Contains((&Shape{Kinds: KindObject, Open: true}).String(), "...") {
		t.Error("open marker missing")
	}
}

func TestAnalyzeShapesUnparseable(t *testing.T) {
	rep := AnalyzeShapes("var broken = ;")
	if rep.Consumed.HasHandler || len(rep.Emits) != 0 {
		t.Errorf("unparseable source should yield a zero report: %+v", rep)
	}
}
