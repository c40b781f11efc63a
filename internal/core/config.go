// Package core is VideoPipe's control plane: pipeline configurations
// (paper §3.1, Listing 1), DAG validation, deployment planning (the
// co-locating VideoPipe planner and the EdgeEye-style baseline), cluster
// assembly over simulated devices, and the pipeline runtime with the
// queue-free, source-signalled flow control of §2.3.
package core

import (
	"fmt"
	"sort"

	"videopipe/internal/frame"
	"videopipe/internal/wire"
)

// ModuleConfig describes one module of an application DAG (one entry of
// Listing 1's modules list).
type ModuleConfig struct {
	// Name identifies the module within the pipeline.
	Name string
	// Source is the module's PipeScript code.
	Source string
	// Services lists the stateless services the module may call.
	Services []string
	// Endpoint optionally fixes the module's inbound endpoint; the zero
	// value means an ephemeral bind.
	Endpoint wire.Endpoint
	// Next lists the destination module names of outgoing DAG edges.
	Next []string
	// Device optionally pins the module to a device, overriding the
	// planner.
	Device string
	// Limits overrides the pipeline's sandbox resource budget for this
	// module; zero fields inherit (see LimitsConfig).
	Limits LimitsConfig
}

// SourceConfig describes the pipeline's video source — the camera end.
type SourceConfig struct {
	// Device names the device holding the camera.
	Device string
	// FirstModule names the module receiving captured frames.
	FirstModule string
	// FPS is the capture rate (Table 2's swept parameter).
	FPS float64
	// Width and Height are the capture dimensions.
	Width, Height int
	// Renderer generates the synthetic camera image; when nil, Scene and
	// RepRate select a built-in exercise scene.
	Renderer frame.Renderer
	// Scene is an activity name for the built-in scene renderer.
	Scene string
	// RepRate is the exercise rep rate in reps per second.
	RepRate float64
}

// PipelineConfig is a full application: a module DAG plus its source.
type PipelineConfig struct {
	// Name identifies the pipeline; metrics are namespaced under it.
	Name string
	// Modules is the DAG's node list.
	Modules []ModuleConfig
	// Source is the camera end.
	Source SourceConfig
	// Limits is the pipeline-wide sandbox resource budget; zero fields
	// fall back to the cluster defaults (see LimitsConfig).
	Limits LimitsConfig
}

// Validate checks structural soundness: unique names, resolvable edges and
// source, an acyclic graph, and sane source parameters.
func (c *PipelineConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("core: pipeline missing name")
	}
	if len(c.Modules) == 0 {
		return fmt.Errorf("core: pipeline %q has no modules", c.Name)
	}
	byName := make(map[string]*ModuleConfig, len(c.Modules))
	for i := range c.Modules {
		m := &c.Modules[i]
		if m.Name == "" {
			return fmt.Errorf("core: pipeline %q: module %d missing name", c.Name, i)
		}
		if m.Source == "" {
			return fmt.Errorf("core: pipeline %q: module %q has no source code", c.Name, m.Name)
		}
		if _, dup := byName[m.Name]; dup {
			return fmt.Errorf("core: pipeline %q: duplicate module %q", c.Name, m.Name)
		}
		byName[m.Name] = m
	}
	for _, m := range c.Modules {
		for _, next := range m.Next {
			if _, ok := byName[next]; !ok {
				return fmt.Errorf("core: pipeline %q: module %q references unknown module %q", c.Name, m.Name, next)
			}
			if next == m.Name {
				return fmt.Errorf("core: pipeline %q: module %q links to itself", c.Name, m.Name)
			}
		}
	}
	if _, err := c.TopoOrder(); err != nil {
		return err
	}
	if c.Source.FirstModule == "" {
		return fmt.Errorf("core: pipeline %q: source missing first module", c.Name)
	}
	if _, ok := byName[c.Source.FirstModule]; !ok {
		return fmt.Errorf("core: pipeline %q: source feeds unknown module %q", c.Name, c.Source.FirstModule)
	}
	if c.Source.Device == "" {
		return fmt.Errorf("core: pipeline %q: source missing device", c.Name)
	}
	if c.Source.FPS <= 0 {
		return fmt.Errorf("core: pipeline %q: source fps %v must be positive", c.Name, c.Source.FPS)
	}
	if c.Source.Width <= 0 || c.Source.Height <= 0 {
		return fmt.Errorf("core: pipeline %q: bad source dimensions %dx%d", c.Name, c.Source.Width, c.Source.Height)
	}
	if err := c.Limits.validate(fmt.Sprintf("pipeline %q", c.Name)); err != nil {
		return err
	}
	for _, m := range c.Modules {
		if err := m.Limits.validate(fmt.Sprintf("pipeline %q: module %q", c.Name, m.Name)); err != nil {
			return err
		}
	}
	return nil
}

// Module returns the named module config.
func (c *PipelineConfig) Module(name string) (*ModuleConfig, bool) {
	for i := range c.Modules {
		if c.Modules[i].Name == name {
			return &c.Modules[i], true
		}
	}
	return nil, false
}

// TopoOrder returns the module names in topological order (sources first)
// or an error if the graph has a cycle — applications are DAGs (§2).
func (c *PipelineConfig) TopoOrder() ([]string, error) {
	indeg := make(map[string]int, len(c.Modules))
	adj := make(map[string][]string, len(c.Modules))
	for _, m := range c.Modules {
		if _, ok := indeg[m.Name]; !ok {
			indeg[m.Name] = 0
		}
		for _, next := range m.Next {
			adj[m.Name] = append(adj[m.Name], next)
			indeg[next]++
		}
	}
	// Deterministic order among ready nodes.
	var ready []string
	for name, d := range indeg {
		if d == 0 {
			ready = append(ready, name)
		}
	}
	sort.Strings(ready)

	var order []string
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		var unblocked []string
		for _, next := range adj[n] {
			indeg[next]--
			if indeg[next] == 0 {
				unblocked = append(unblocked, next)
			}
		}
		sort.Strings(unblocked)
		ready = append(ready, unblocked...)
	}
	if len(order) != len(indeg) {
		return nil, fmt.Errorf("core: pipeline %q: module graph has a cycle", c.Name)
	}
	return order, nil
}

// Sinks reports modules with no outgoing edges — the pipeline's final
// stage(s), whose frame_done() calls drive flow control.
func (c *PipelineConfig) Sinks() []string {
	var out []string
	for _, m := range c.Modules {
		if len(m.Next) == 0 {
			out = append(out, m.Name)
		}
	}
	sort.Strings(out)
	return out
}
