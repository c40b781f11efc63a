package core_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"videopipe/internal/apps"
	"videopipe/internal/chaos"
	"videopipe/internal/core"
	"videopipe/internal/script"
)

// TestParseConfigLimitsBlock: `limits { ... }` parses at both the pipeline
// and module scope, and EffectiveLimits merges module over pipeline over
// cluster defaults.
func TestParseConfigLimitsBlock(t *testing.T) {
	text := `
		modules : [
			{ name: tight
			  source: "function event_received(m) { frame_done(); }"
			  limits: { instructions: 1000, memory: 4096 } }
			{ name: loose
			  source: "function event_received(m) { frame_done(); }" }
		]
		limits : { instruction_limit: 500000, init_instructions: 2000,
		           output_limit: 1024 }
		source : { device: phone, module: tight, fps: 15, width: 64, height: 48 }
	`
	cfg, err := core.ParseConfig("p", text, nil)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// Module scope wins over pipeline scope; unset module fields inherit.
	eff := cfg.EffectiveLimits("tight")
	if eff.Instructions != 1000 || eff.Memory != 4096 {
		t.Errorf("tight limits = %+v", eff)
	}
	if eff.InitInstructions != 2000 || eff.Output != 1024 {
		t.Errorf("tight inherited fields = %+v", eff)
	}

	// Pipeline scope wins over cluster defaults; unset fields default.
	eff = cfg.EffectiveLimits("loose")
	if eff.Instructions != 500000 {
		t.Errorf("loose instructions = %d", eff.Instructions)
	}
	if eff.Memory != core.DefaultMemoryLimit {
		t.Errorf("loose memory = %d, want cluster default %d", eff.Memory, int64(core.DefaultMemoryLimit))
	}

	// ToScript carries the values into the sandbox's own type.
	lim := cfg.EffectiveLimits("tight").ToScript()
	if lim.Instructions != 1000 || lim.InitInstructions != 2000 || lim.Output != 1024 {
		t.Errorf("ToScript = %+v", lim)
	}
}

// TestEffectiveLimitsDefaults: a config with no limits at all runs under
// the cluster defaults, never unlimited.
func TestEffectiveLimitsDefaults(t *testing.T) {
	cfg := apps.FitnessConfig("fit", 15, "squat")
	eff := cfg.EffectiveLimits("rep_counter")
	def := core.DefaultLimits()
	if eff != def {
		t.Errorf("EffectiveLimits = %+v, want defaults %+v", eff, def)
	}
	if lim := eff.ToScript(); lim.Instructions <= 0 || lim.InitInstructions <= 0 || lim.Memory <= 0 || lim.Output <= 0 {
		t.Errorf("default limits must bound the sandbox: %+v", lim)
	}
}

func TestParseConfigLimitsErrors(t *testing.T) {
	cases := []string{
		`modules: [ { name: a, source: "x", limits: { instructions: "many" } } ]`, // non-numeric
		`modules: [ { name: a, source: "x", limits: { fuel: 5 } } ]`,              // unknown field
		`modules: [ { name: a, source: "x" } ] limits: { memory: "big" }`,         // non-numeric, pipeline scope
	}
	for i, text := range cases {
		if _, err := core.ParseConfig("p", text, nil); err == nil {
			t.Errorf("case %d: ParseConfig accepted %q", i, text)
		}
	}
	// The wall-clock backstop is gone: steps are the one CPU budget.
	_, err := core.ParseConfig("p", `modules: [ { name: a, source: "x", limits: { timeout_ms: 250 } } ]`, nil)
	if err == nil || !strings.Contains(err.Error(), `unknown limits field "timeout_ms"`) {
		t.Errorf("timeout_ms: err = %v, want the unknown limits field error", err)
	}
}

func TestValidateRejectsBadLimits(t *testing.T) {
	base := func() core.PipelineConfig {
		return core.PipelineConfig{
			Name: "p",
			Modules: []core.ModuleConfig{
				{Name: "a", Source: "function event_received(m) { frame_done(); }"},
			},
			Source: core.SourceConfig{Device: "phone", FirstModule: "a", FPS: 15, Width: 64, Height: 48},
		}
	}

	cfg := base()
	cfg.Limits.Instructions = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative pipeline instruction limit accepted")
	}

	cfg = base()
	cfg.Modules[0].Limits.Memory = -5
	if err := cfg.Validate(); err == nil {
		t.Error("negative module memory limit accepted")
	}

	cfg = base()
	cfg.Limits.Instructions = script.DefaultMaxSteps + 1
	if err := cfg.Validate(); err == nil {
		t.Error("instruction limit above the interpreter hard ceiling accepted")
	}
}

// TestPV014LimitBreachWarnings covers the budget cross-check: a declared
// limit below the static worst case warns (guaranteed breach), and an
// unbounded handler with no declared limit warns it runs under the
// cluster default.
func TestPV014LimitBreachWarnings(t *testing.T) {
	t.Run("static bound above declared limit", func(t *testing.T) {
		cfg := twoStage(`function event_received(m) { frame_done(); }`, nil)
		cfg.Modules[1].Limits.Instructions = 2 // no handler fits two steps
		d, ok := findDiag(core.AnalyzePipeline(&cfg), core.CodeLimitBreach)
		if !ok {
			t.Fatal("no PV014 diagnostic for a guaranteed-breach limit")
		}
		if d.Severity != script.SeverityWarning || d.Module != "sink" {
			t.Errorf("bad diagnostic: %+v", d)
		}
		if !strings.Contains(d.Message, "guaranteed to breach") {
			t.Errorf("message = %q", d.Message)
		}
	})

	t.Run("unbounded handler with no declared limit", func(t *testing.T) {
		cfg := twoStage(`
			function event_received(m) {
				var i = 0;
				while (m.go > 0) { i = i + 1; }
				frame_done();
			}`, nil)
		d, ok := findDiag(core.AnalyzePipeline(&cfg), core.CodeLimitBreach)
		if !ok {
			t.Fatal("no PV014 diagnostic for an unbounded, unlimited handler")
		}
		if !strings.Contains(d.Message, "no static cost bound") {
			t.Errorf("message = %q", d.Message)
		}
	})

	t.Run("declared limit silences the unbounded warning", func(t *testing.T) {
		cfg := twoStage(`
			function event_received(m) {
				var i = 0;
				while (m.go > 0) { i = i + 1; }
				frame_done();
			}`, nil)
		cfg.Limits.Instructions = 100_000
		if d, ok := findDiag(core.AnalyzePipeline(&cfg), core.CodeLimitBreach); ok {
			t.Errorf("unexpected PV014 with a declared limit: %v", d)
		}
	})

	t.Run("bounded handlers under the default limits are clean", func(t *testing.T) {
		cfg := twoStage(`function event_received(m) { frame_done(); }`, nil)
		if d, ok := findDiag(core.AnalyzePipeline(&cfg), core.CodeLimitBreach); ok {
			t.Errorf("unexpected PV014: %v", d)
		}
	})
}

// TestBuiltinAppsWithinDefaultLimits is the soundness cross-check: every
// shipped application's static worst-case cost fits under the cluster
// default budgets, so the examples run breach-free out of the box.
func TestBuiltinAppsWithinDefaultLimits(t *testing.T) {
	cfgs := []core.PipelineConfig{
		apps.FitnessConfig("fitness", 20, "squat"),
		apps.GestureConfig("gesture", 20, "wave"),
		apps.FallConfig("fall", 15),
	}
	for _, cfg := range cfgs {
		for _, m := range cfg.Modules {
			eff := cfg.EffectiveLimits(m.Name)
			for _, h := range script.Analyze(m.Source, script.Options{}).Cost.Handlers {
				if !h.Bounded {
					t.Errorf("%s/%s: handler %s has no static bound", cfg.Name, m.Name, h.Name)
					continue
				}
				limit := eff.Instructions
				if (h.Name == "init" || h.Name == script.LoadHandler) && eff.InitInstructions > 0 {
					limit = eff.InitInstructions
				}
				if h.Steps > limit {
					t.Errorf("%s/%s: handler %s worst case %d exceeds default budget %d",
						cfg.Name, m.Name, h.Name, h.Steps, limit)
				}
			}
		}
		// And the analyzer agrees: no PV014 findings on shipped apps.
		if d, ok := findDiag(core.AnalyzePipeline(&cfg), core.CodeLimitBreach); ok {
			t.Errorf("%s: unexpected PV014: %v", cfg.Name, d)
		}
	}
}

// TestPipelineRestartModuleHealsSabotage drives the whole kill/restart arc
// at the pipeline level: hostile code hot-swapped into a live module
// breaches until the sandbox kills it, RestartModule respawns it from the
// original config source, and the hostile snapshot (version 666) is
// discarded on restore because the benign code carries no matching
// preservation version.
func TestPipelineRestartModuleHealsSabotage(t *testing.T) {
	c := homeCluster(t)
	cfg := apps.FitnessConfig("gov", 30, "squat")
	cfg.Limits.Instructions = 50_000
	p, err := c.Launch(cfg, core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer p.Close()

	if err := p.UpdateModule("rep_counter", chaos.RunawaySource); err != nil {
		t.Fatalf("UpdateModule: %v", err)
	}
	// Drive the source until the breach allowance is exhausted.
	if _, err := p.Run(context.Background(), 1500*time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	killed := p.KilledModules()
	if len(killed) != 1 || killed[0] != "rep_counter" {
		t.Fatalf("KilledModules = %v, want [rep_counter]", killed)
	}

	if err := p.RestartModule("rep_counter"); err != nil {
		t.Fatalf("RestartModule: %v", err)
	}
	if got := p.KilledModules(); len(got) != 0 {
		t.Fatalf("KilledModules after restart = %v", got)
	}
	if got := c.Metrics().Meter("pipeline.gov.recoveries").Count(); got == 0 {
		t.Error("recoveries meter not marked")
	}
	// The hostile snapshot carried _PRESERVATION_VERSION 666; the restored
	// benign code does not, so the state was discarded. The restore runs on
	// the new module's event loop, so poll briefly.
	discarded := c.Metrics().Meter("module.gov.rep_counter.restore_discarded")
	deadline := time.Now().Add(2 * time.Second)
	for discarded.Count() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := discarded.Count(); got != 1 {
		t.Errorf("restore_discarded = %d, want 1", got)
	}

	// The pipeline delivers frames again end to end.
	before := c.Metrics().Meter("pipeline.gov.display.frames_done").Count()
	if _, err := p.Run(context.Background(), time.Second); err != nil {
		t.Fatalf("Run after restart: %v", err)
	}
	if got := c.Metrics().Meter("pipeline.gov.display.frames_done").Count(); got <= before {
		t.Errorf("no frames delivered after restart (%d -> %d)", before, got)
	}

	// Restarting a healthy module is an error-free no-op for the caller to
	// guard, but an unknown module is rejected.
	if err := p.RestartModule("ghost"); err == nil {
		t.Error("RestartModule(ghost) succeeded")
	}
}

// TestBudgetIndexOfProbeBreaches: a handler that spends its time inside a
// builtin pays steps for that work, so under the default limits it breaches
// the instruction budget within milliseconds (9–13 ms on a 2-core x86-64
// box). With builtins free, this probe ran ~10 s in 320 015 steps and
// breached nothing: the wall-clock backstop excluded builtin time along
// with host-call time. The wall-time bound is a loose sanity check; the
// step count is the exact one.
func TestBudgetIndexOfProbeBreaches(t *testing.T) {
	c := script.NewContext()
	c.SetLimits(core.DefaultLimits().ToScript())
	if err := c.Load(`function event_received(m) {
		var a = range(100000);
		var n = 0;
		for (var i = 0; i < 20000; i++) { n = n + index_of(a, -1); }
		return n;
	}`); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := c.Call("event_received", nil)
	took := time.Since(start)
	checkProbeBreach(t, c, err, took)
}

// checkProbeBreach: a probe under the default limits ended on an
// instruction breach at exactly the limit plus one step, within a second.
func checkProbeBreach(t *testing.T, c *script.Context, err error, took time.Duration) {
	t.Helper()
	var be *script.BudgetError
	if !errors.As(err, &be) || be.Resource != script.ResourceInstructions {
		t.Fatalf("err = %v, want an instruction BudgetError", err)
	}
	if limit := core.DefaultLimits().Instructions; c.LastInstructions() != limit+1 {
		t.Errorf("LastInstructions = %d, want the limit %d plus one", c.LastInstructions(), limit)
	}
	bound := time.Second
	if raceEnabled {
		bound *= 10
	}
	if took >= bound {
		t.Errorf("the breach took %v, want < %v", took, bound)
	}
	t.Logf("breached in %v", took)
}

// TestBudgetLongStringProbesBreach: comparing strings and looking fields up
// by string key pay for the bytes they read, so a loop over two 2 MiB
// strings that differ in their last byte — built once, held in globals at
// no further memory cost — breaches within a few dozen rounds. A round reads
// 2 MiB or more in a handful of node steps, so steps alone would let one
// event run for tens of seconds.
func TestBudgetLongStringProbesBreach(t *testing.T) {
	const setup = `var s = "x";
		for (var i = 0; i < 21; i++) { s = s + s; }
		var t = ""; var o = {}; var rounds = 0;
		function init() { t = substr(s, 1) + "y"; o[s] = 1; o[t] = 2; }
		function event_received(m) { while (true) { PROBE; rounds = rounds + 1; } }
		function done() { return rounds; }`
	for _, probe := range []string{
		"s == t", "s < t", "o[t]", "has(o, t)", "index_of([s], t)", "contains(s, t)",
		"sort([s, t])", "switch (s) { case t: }", "for (var k of o) {}",
	} {
		t.Run(probe, func(t *testing.T) {
			c := script.NewContext()
			c.SetLimits(core.DefaultLimits().ToScript())
			if err := c.Load(strings.Replace(setup, "PROBE", probe, 1)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Call("init", nil); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err := c.Call("event_received", nil)
			checkProbeBreach(t, c, err, time.Since(start))
			// A round reads at least one 2 MiB string: 2 MiB / 64 steps.
			rounds, _ := c.Call("done")
			if max := float64(core.DefaultLimits().Instructions / (1 << 21 / 64)); rounds.(float64) > max {
				t.Errorf("ran %v rounds, want at most %v", rounds, max)
			}
		})
	}
}

// TestBudgetRangeBreachesBeforeAllocating: range charges its length before
// it builds the array, so a range the budget cannot afford allocates
// nothing. With builtins free, range(1 << 24) built 384 MiB before the
// memory budget noticed.
func TestBudgetRangeBreachesBeforeAllocating(t *testing.T) {
	c := script.NewContext()
	c.SetLimits(core.DefaultLimits().ToScript())
	if err := c.Load(`function event_received(m) { return len(range(16777216)); }`); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Call("event_received", nil)
	runtime.ReadMemStats(&after)
	var be *script.BudgetError
	if !errors.As(err, &be) || be.Resource != script.ResourceInstructions {
		t.Fatalf("err = %v, want an instruction BudgetError", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("allocated %d bytes before the breach, want <= 1 MiB", alloc)
	}
}
