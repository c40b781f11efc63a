package core

import (
	"fmt"
	"strings"

	"videopipe/internal/script"
)

// Config-aware static analysis ("pipevet", layer 2). AnalyzePipeline runs
// the script-level analyzer over every module of a pipeline and then
// cross-checks what each module's AST actually references against what its
// ModuleConfig declares: literal call_service targets must appear in
// Services, literal call_module targets must be declared Next edges, and —
// vice versa — declared services and edges that no call site references are
// flagged. Modules reachable from the video source must define
// event_received. Launch and PipelineBuilder.Build reject pipelines with
// error-severity findings, so these mistakes fail at deploy time instead of
// killing frames at runtime.

// Diagnostic codes added by the config cross-check layer, extending the
// script-level PV0xx range.
const (
	CodeUndeclaredService = "PV101" // call_service target missing from Services
	CodeUndeclaredEdge    = "PV102" // call_module target is not a Next edge
	CodeUnusedService     = "PV103" // declared service never called
	CodeUnusedEdge        = "PV104" // declared edge never targeted
)

// CodeLimitBreach (PV014) flags sandbox-budget problems visible
// statically: an instruction limit below the pipecost worst-case bound
// (every event is guaranteed to breach), or an unbounded handler deployed
// with no declared instruction limit (it will run until the cluster
// default kills it). It continues the script-level PV0xx range because the
// check joins pipecost's script analysis with the config's limits.
const CodeLimitBreach = "PV014"

// Diagnostic is one analyzer finding attributed to a pipeline module.
type Diagnostic struct {
	Pipeline string
	Module   string
	Pos      script.Position
	Code     string
	Severity script.Severity
	Message  string
}

func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Module != "" {
		fmt.Fprintf(&b, "module %s: ", d.Module)
	}
	if d.Pos != (script.Position{}) {
		fmt.Fprintf(&b, "%s: ", d.Pos)
	}
	fmt.Fprintf(&b, "%s %s: %s", d.Severity, d.Code, d.Message)
	return b.String()
}

// AnalysisError is returned by Launch and Build when pipevet finds
// error-severity diagnostics; it carries every error so one deploy attempt
// surfaces all of them.
type AnalysisError struct {
	Pipeline    string
	Diagnostics []Diagnostic
}

func (e *AnalysisError) Error() string {
	msgs := make([]string, len(e.Diagnostics))
	for i, d := range e.Diagnostics {
		msgs[i] = d.String()
	}
	return fmt.Sprintf("core: pipeline %q failed static analysis:\n  %s",
		e.Pipeline, strings.Join(msgs, "\n  "))
}

// AnalyzePipeline runs the full pipevet pass — script-level checks plus
// config cross-checks — over every module and returns all diagnostics,
// warnings included. It does not require the config to pass Validate, so
// the lint path can report script diagnostics alongside structural errors.
func AnalyzePipeline(cfg *PipelineConfig) []Diagnostic {
	reachable := reachableModules(cfg)
	var out []Diagnostic
	shapes := make(map[string]script.ShapeReport, len(cfg.Modules))
	for i := range cfg.Modules {
		m := &cfg.Modules[i]
		rep := script.Analyze(m.Source, script.Options{
			RequireEventReceived: reachable[m.Name],
		})
		for _, d := range rep.Diagnostics {
			out = append(out, Diagnostic{
				Pipeline: cfg.Name, Module: m.Name,
				Pos: d.Pos, Code: d.Code, Severity: d.Severity, Message: d.Message,
			})
		}
		out = append(out, crossCheckModule(cfg, m, rep)...)
		out = append(out, limitsCheckModule(cfg, m, rep.Cost)...)
		shapes[m.Name] = rep.Shapes
	}
	// pipetype: whole-DAG edge-contract checks over the per-module shape
	// reports (shapecheck.go).
	out = append(out, shapeCheckPipeline(cfg, shapes)...)
	return out
}

// limitsCheckModule cross-checks a module's sandbox budget against its
// pipecost static bounds (PV014); cost is the report script.Analyze
// already produced for the module. Both findings are warnings: a
// guaranteed-breach limit may be a deliberate canary, and an unbounded
// handler still runs under the cluster default — but both deserve a loud
// note at deploy time.
func limitsCheckModule(cfg *PipelineConfig, m *ModuleConfig, cost script.CostReport) []Diagnostic {
	eff := cfg.EffectiveLimits(m.Name)
	declared := m.Limits.Instructions > 0 || cfg.Limits.Instructions > 0

	var out []Diagnostic
	add := func(pos script.Position, msg string) {
		out = append(out, Diagnostic{
			Pipeline: cfg.Name, Module: m.Name,
			Pos: pos, Code: CodeLimitBreach, Severity: script.SeverityWarning, Message: msg,
		})
	}

	for _, h := range cost.Handlers {
		// Resolve which budget governs this handler: init and top-level
		// load run under the init budget when one is set.
		limit := eff.Instructions
		budget := "instruction_limit"
		if (h.Name == "init" || h.Name == script.LoadHandler) && eff.InitInstructions > 0 {
			limit = eff.InitInstructions
			budget = "init_instructions"
		}
		if h.Bounded {
			if limit > 0 && h.Steps > limit {
				add(h.Pos, fmt.Sprintf(
					"%s static worst case (%d steps) exceeds the effective %s (%d): every invocation is guaranteed to breach",
					handlerLabelFor(h.Name), h.Steps, budget, limit))
			}
		} else if !declared {
			add(h.Pos, fmt.Sprintf(
				"%s has no static cost bound and the module declares no instruction_limit; it runs until the cluster default (%d steps) kills it",
				handlerLabelFor(h.Name), int64(DefaultInstructionLimit)))
		}
	}
	return out
}

// handlerLabelFor renders a cost-handler name for diagnostics.
func handlerLabelFor(name string) string {
	if name == script.LoadHandler {
		return "module top level"
	}
	return name + "()"
}

// AnalyzeModuleSource runs only the script-level checks over one module
// source, without config cross-checks — for tooling that lints standalone
// PipeScript files.
func AnalyzeModuleSource(src string) []Diagnostic {
	rep := script.Analyze(src, script.Options{})
	out := make([]Diagnostic, 0, len(rep.Diagnostics))
	for _, d := range rep.Diagnostics {
		out = append(out, Diagnostic{Pos: d.Pos, Code: d.Code, Severity: d.Severity, Message: d.Message})
	}
	return out
}

// AnalysisErrors filters diagnostics down to error severity.
func AnalysisErrors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity == script.SeverityError {
			out = append(out, d)
		}
	}
	return out
}

// analyzeForLaunch gates a deployment: error-severity findings come back as
// an *AnalysisError, warnings are returned for the caller to log.
func analyzeForLaunch(cfg *PipelineConfig) ([]Diagnostic, error) {
	diags := AnalyzePipeline(cfg)
	var warns []Diagnostic
	var errs []Diagnostic
	for _, d := range diags {
		if d.Severity == script.SeverityError {
			errs = append(errs, d)
		} else {
			warns = append(warns, d)
		}
	}
	if len(errs) > 0 {
		return warns, &AnalysisError{Pipeline: cfg.Name, Diagnostics: errs}
	}
	return warns, nil
}

// reachableModules walks the DAG from the source's first module.
func reachableModules(cfg *PipelineConfig) map[string]bool {
	reachable := make(map[string]bool, len(cfg.Modules))
	if cfg.Source.FirstModule == "" {
		return reachable
	}
	queue := []string{cfg.Source.FirstModule}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if reachable[name] {
			continue
		}
		m, ok := cfg.Module(name)
		if !ok {
			continue // Validate reports unknown names
		}
		reachable[name] = true
		queue = append(queue, m.Next...)
	}
	return reachable
}

// crossCheckModule compares the literal call targets the analyzer extracted
// from a module's source against the module's declared Services and Next
// edges (PV101–PV104).
func crossCheckModule(cfg *PipelineConfig, m *ModuleConfig, rep script.Report) []Diagnostic {
	declaredSvc := toSet(m.Services)
	declaredNext := toSet(m.Next)
	usedSvc := make(map[string]bool)
	usedNext := make(map[string]bool)
	var out []Diagnostic

	add := func(pos script.Position, code string, sev script.Severity, msg string) {
		out = append(out, Diagnostic{
			Pipeline: cfg.Name, Module: m.Name,
			Pos: pos, Code: code, Severity: sev, Message: msg,
		})
	}

	for _, t := range rep.Facts.ServiceTargets {
		usedSvc[t.Name] = true
		if !declaredSvc[t.Name] {
			add(t.Pos, CodeUndeclaredService, script.SeverityError,
				fmt.Sprintf("call_service(%q) targets a service the module does not declare; add it to the module's services", t.Name))
		}
	}
	for _, t := range rep.Facts.ModuleTargets {
		usedNext[t.Name] = true
		if !declaredNext[t.Name] {
			add(t.Pos, CodeUndeclaredEdge, script.SeverityError,
				fmt.Sprintf("call_module(%q) has no matching DAG edge; add %q to next_module", t.Name, t.Name))
		}
	}

	// Dynamic (computed) targets mean the source may reach any declared
	// name, so "never referenced" warnings would be noise.
	if rep.Facts.DynamicServiceTargets == 0 {
		for _, s := range m.Services {
			if !usedSvc[s] {
				add(script.Position{}, CodeUnusedService, script.SeverityWarning,
					fmt.Sprintf("declared service %q is never called", s))
			}
		}
	}
	if rep.Facts.DynamicModuleTargets == 0 {
		for _, n := range m.Next {
			if !usedNext[n] {
				add(script.Position{}, CodeUnusedEdge, script.SeverityWarning,
					fmt.Sprintf("declared edge to %q is never used by call_module", n))
			}
		}
	}
	return out
}

func toSet(names []string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}
