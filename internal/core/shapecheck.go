package core

import (
	"fmt"
	"sort"
	"strings"

	"videopipe/internal/script"
)

// pipetype edge-contract checking (layer 2 of the shape analysis; the
// inference itself lives in internal/script/shapes.go). For every DAG edge
// of a pipeline, the payload shapes a producer emits are checked against
// the fields its consumer's event_received reads:
//
//	PV015 (error)   — a field read downstream is never produced on any
//	                  inbound emit path
//	PV016 (error)   — a field's produced kinds are disjoint from the kinds
//	                  its uses require
//	PV017 (warning) — a produced field is never consumed by the edge's
//	                  handler
//
// The checks run wherever pipevet runs — Build, Launch, -lint — and again
// on hot-swap (Pipeline.UpdateModule), so a live swap cannot silently
// break an edge contract.
//
// Soundness stance: PV015/PV016 are errors, so they must never reject a
// working pipeline. They are skipped whenever the analysis cannot prove
// the edge's traffic — any inbound producer with zero call_module sites
// (no events ever arrive on that edge, e.g. a sabotage swap), any inbound
// emission that degraded to top/open (PV018 already warned at the
// producer), or a consumer whose reads could not be attributed.
const (
	CodeMissingField = "PV015" // field read downstream but never produced upstream
	CodeKindMismatch = "PV016" // produced kinds disjoint from required kinds
	CodeDeadField    = "PV017" // produced field never consumed on the edge
)

// sourceInjectedShape is what Pipeline.Offer hands the entry module: the
// runtime stamps captured_ms/seq and the frame reference travels as
// frame_ref. The shape is open because device-level injection may carry
// arbitrary extra body fields, so unknown entry reads never error.
func sourceInjectedShape() *script.Shape {
	return &script.Shape{
		Kinds: script.KindObject,
		Open:  true,
		Fields: map[string]*script.Shape{
			"captured_ms": {Kinds: script.KindNumber},
			"seq":         {Kinds: script.KindNumber},
			"frame_ref":   {Kinds: script.KindNumber},
		},
	}
}

// shapeCheckPipeline cross-checks produced and consumed shapes along every
// DAG edge. reports must hold one script report per module (as produced by
// script.Analyze or, for the hot-swap gate, script.AnalyzeShapes).
func shapeCheckPipeline(cfg *PipelineConfig, reports map[string]script.ShapeReport) []Diagnostic {
	byName := make(map[string]*ModuleConfig, len(cfg.Modules))
	for i := range cfg.Modules {
		byName[cfg.Modules[i].Name] = &cfg.Modules[i]
	}

	// producers[c] lists the modules declaring an edge into c, in config
	// order for deterministic output.
	producers := make(map[string][]string)
	for _, m := range cfg.Modules {
		seen := make(map[string]bool)
		for _, next := range m.Next {
			if _, ok := byName[next]; !ok || seen[next] {
				continue // phantom edge: PV103/Validate territory
			}
			seen[next] = true
			producers[next] = append(producers[next], m.Name)
		}
	}

	var out []Diagnostic
	add := func(module string, pos script.Position, code string, sev script.Severity, msg string) {
		out = append(out, Diagnostic{
			Pipeline: cfg.Name, Module: module,
			Pos: pos, Code: code, Severity: sev, Message: msg,
		})
	}

	// Consumer-side checks: PV015 / PV016.
	for _, m := range cfg.Modules {
		consumed := reports[m.Name].Consumed
		if !consumed.HasHandler || len(consumed.Fields) == 0 {
			continue
		}

		var inbound *script.Shape
		silent := false
		if m.Name == cfg.Source.FirstModule {
			inbound = inbound.Join(sourceInjectedShape())
		}
		for _, p := range producers[m.Name] {
			prep := reports[p]
			produced := prep.Emits[m.Name].Join(prep.DynamicEmit)
			if produced == nil {
				// The producer never emits on this edge: no events will
				// ever arrive through it, so nothing can be proven about
				// the consumer's traffic. This keeps sabotage swaps
				// (modules with zero call_module sites) deployable.
				silent = true
				continue
			}
			inbound = inbound.Join(produced)
		}
		if silent || inbound == nil {
			continue
		}
		if inbound.IsTop() || inbound.Kinds&script.KindObject == 0 {
			continue
		}

		fields := make([]string, 0, len(consumed.Fields))
		for f := range consumed.Fields {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		for _, f := range fields {
			use := consumed.Fields[f]
			produced, present := inbound.Fields[f]
			if !present {
				if inbound.Open || f == "frame_ref" {
					// Open field sets say nothing about absence, and
					// frame_ref is injected by the runtime whenever a
					// frame travels.
					continue
				}
				add(m.Name, use.Pos, CodeMissingField, script.SeverityError,
					fmt.Sprintf("field %q is read by event_received but never produced on any inbound edge (from %s)",
						f, strings.Join(producers[m.Name], ", ")))
				continue
			}
			if use.Kinds != 0 && produced != nil && !produced.IsTop() &&
				produced.Kinds != 0 && produced.Kinds&use.Kinds == 0 {
				add(m.Name, use.Pos, CodeKindMismatch, script.SeverityError,
					fmt.Sprintf("field %q arrives as %s but its uses require %s",
						f, produced.Kinds, use.Kinds))
			}
		}
	}

	// Producer-side checks: PV017. Only literal-target emissions with
	// closed shapes participate; a dynamic or open producer may feed
	// consumers the analysis cannot see.
	for _, m := range cfg.Modules {
		rep := reports[m.Name]
		seen := make(map[string]bool)
		for _, target := range m.Next {
			if seen[target] {
				continue
			}
			seen[target] = true
			em := rep.Emits[target]
			if em == nil || em.IsTop() || em.Open {
				continue
			}
			consumer, ok := reports[target]
			if !ok || !consumer.Consumed.HasHandler || consumer.Consumed.Dynamic {
				continue
			}
			fields := make([]string, 0, len(em.Fields))
			for f := range em.Fields {
				fields = append(fields, f)
			}
			sort.Strings(fields)
			for _, f := range fields {
				if f == "frame_ref" {
					continue // consumed by the runtime's frame transfer
				}
				if _, reads := consumer.Consumed.Fields[f]; reads {
					continue
				}
				pos := emitPosFor(rep, target, f)
				add(m.Name, pos, CodeDeadField, script.SeverityWarning,
					fmt.Sprintf("field %q emitted to %q is never read by its handler", f, target))
			}
		}
	}
	return out
}

// emitPosFor finds the first emit site to target whose payload carries the
// field, for positioning PV017 at the responsible call.
func emitPosFor(rep script.ShapeReport, target, field string) script.Position {
	for _, s := range rep.EmitSites {
		if s.Target != target || s.Payload == nil {
			continue
		}
		if _, ok := s.Payload.Fields[field]; ok {
			return s.Pos
		}
	}
	for _, s := range rep.EmitSites {
		if s.Target == target {
			return s.Pos
		}
	}
	return script.Position{}
}

// ShapeReports runs the pipetype shape inference over every module's
// source and returns the per-module reports, keyed by module name. A
// module that does not parse gets an empty report; deploy-time analysis
// rejects it separately.
func (c *PipelineConfig) ShapeReports() map[string]script.ShapeReport {
	out := make(map[string]script.ShapeReport, len(c.Modules))
	for _, m := range c.Modules {
		out[m.Name] = script.AnalyzeShapes(m.Source)
	}
	return out
}

// checkShapeUpdate re-runs the edge-contract checks against a config copy
// in which module name carries the proposed new source, and returns an
// error if the swap would introduce an error-severity PV015/PV016
// finding. Warnings (PV017/PV018) never block a swap.
func checkShapeUpdate(cfg PipelineConfig, name, source string) error {
	mods := make([]ModuleConfig, len(cfg.Modules))
	copy(mods, cfg.Modules)
	for i := range mods {
		if mods[i].Name == name {
			mods[i].Source = source
		}
	}
	cfg.Modules = mods
	errs := AnalysisErrors(shapeCheckPipeline(&cfg, cfg.ShapeReports()))
	if len(errs) == 0 {
		return nil
	}
	return &AnalysisError{Pipeline: cfg.Name, Diagnostics: errs}
}
