package videopipe

import (
	"fmt"

	"videopipe/internal/core"
	"videopipe/internal/frame"
)

// PipelineBuilder assembles a PipelineConfig fluently. Methods that follow
// a Module call configure that module; Source-related methods configure
// the camera end. Errors are deferred to Build so call chains stay clean.
type PipelineBuilder struct {
	cfg  core.PipelineConfig
	errs []error
	cur  int // index of the module being configured, -1 if none
}

// NewPipelineBuilder starts a pipeline with the given name.
func NewPipelineBuilder(name string) *PipelineBuilder {
	return &PipelineBuilder{cfg: core.PipelineConfig{Name: name}, cur: -1}
}

func (b *PipelineBuilder) errf(format string, args ...any) *PipelineBuilder {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
	return b
}

// Module adds a module with the given PipeScript source and makes it the
// target of subsequent Uses/Next/On/Endpoint calls.
func (b *PipelineBuilder) Module(name, source string) *PipelineBuilder {
	b.cfg.Modules = append(b.cfg.Modules, core.ModuleConfig{Name: name, Source: source})
	b.cur = len(b.cfg.Modules) - 1
	return b
}

func (b *PipelineBuilder) current() *core.ModuleConfig {
	if b.cur < 0 {
		return nil
	}
	return &b.cfg.Modules[b.cur]
}

// Uses grants the current module access to the named services.
func (b *PipelineBuilder) Uses(services ...string) *PipelineBuilder {
	m := b.current()
	if m == nil {
		return b.errf("videopipe: Uses(%v) before any Module", services)
	}
	m.Services = append(m.Services, services...)
	return b
}

// Next adds outgoing DAG edges from the current module.
func (b *PipelineBuilder) Next(modules ...string) *PipelineBuilder {
	m := b.current()
	if m == nil {
		return b.errf("videopipe: Next(%v) before any Module", modules)
	}
	m.Next = append(m.Next, modules...)
	return b
}

// Source sets the camera device and the module that receives its frames.
func (b *PipelineBuilder) Source(deviceName, firstModule string) *PipelineBuilder {
	b.cfg.Source.Device = deviceName
	b.cfg.Source.FirstModule = firstModule
	return b
}

// FPS sets the capture rate.
func (b *PipelineBuilder) FPS(fps float64) *PipelineBuilder {
	b.cfg.Source.FPS = fps
	return b
}

// Resolution sets the capture dimensions.
func (b *PipelineBuilder) Resolution(width, height int) *PipelineBuilder {
	b.cfg.Source.Width = width
	b.cfg.Source.Height = height
	return b
}

// Scene selects a built-in synthetic exercise scene for the source: the
// named activity performed at repRate reps per second.
func (b *PipelineBuilder) Scene(activity string, repRate float64) *PipelineBuilder {
	b.cfg.Source.Scene = activity
	b.cfg.Source.RepRate = repRate
	return b
}

// Renderer installs a custom frame renderer for the source, overriding
// Scene.
func (b *PipelineBuilder) Renderer(r frame.Renderer) *PipelineBuilder {
	b.cfg.Source.Renderer = r
	return b
}

// Build validates and returns the configuration.
func (b *PipelineBuilder) Build() (PipelineConfig, error) {
	if len(b.errs) > 0 {
		return PipelineConfig{}, b.errs[0]
	}
	// Default geometry when unset.
	if b.cfg.Source.Width == 0 && b.cfg.Source.Height == 0 {
		b.cfg.Source.Width, b.cfg.Source.Height = 480, 360
	}
	if b.cfg.Source.FPS == 0 {
		b.cfg.Source.FPS = 15
	}
	if err := b.cfg.Validate(); err != nil {
		return PipelineConfig{}, err
	}
	// Static analysis gate (pipevet): module scripts that reference
	// undefined names, call undeclared services, or target non-edges fail
	// here instead of mid-stream. Warnings are kept for Launch to log.
	if errs := core.AnalysisErrors(core.AnalyzePipeline(&b.cfg)); len(errs) > 0 {
		return PipelineConfig{}, &core.AnalysisError{Pipeline: b.cfg.Name, Diagnostics: errs}
	}
	return b.cfg, nil
}
