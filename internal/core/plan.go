package core

import (
	"fmt"
	"slices"
)

// Plan is a deployment decision: where each module runs and how many
// frames the pipeline admits concurrently.
type Plan struct {
	// Placement maps module name to device name.
	Placement map[string]string
	// Credits is the number of frames allowed in flight at once. The
	// queue-free flow control (§2.3) admits a new frame only when a credit
	// is available; the sink's frame_done() returns one.
	Credits int
}

// Planner decides module placement for a pipeline on a cluster.
type Planner interface {
	// Name identifies the strategy in reports.
	Name() string
	// Plan computes the placement.
	Plan(cfg *PipelineConfig, c *Cluster) (Plan, error)
}

// placing is one run of the placement loop: the modules placed so far.
type placing struct {
	cfg    *PipelineConfig
	c      *Cluster
	placed map[string]string
}

// place is the placement loop every planner runs, returning a plan that
// admits credits frames. Modules go in topological order; an explicit pin
// wins, and every other module goes where the strategy's choose says.
func place(cfg *PipelineConfig, c *Cluster, credits int, choose func(*placing, *ModuleConfig) (string, error)) (Plan, error) {
	order, err := cfg.TopoOrder()
	if err != nil {
		return Plan{}, err
	}
	s := &placing{cfg: cfg, c: c, placed: make(map[string]string, len(cfg.Modules))}
	for _, name := range order {
		m, _ := cfg.Module(name)
		dev := m.Device
		if dev == "" {
			if dev, err = choose(s, m); err != nil {
				return Plan{}, err
			}
		} else if _, ok := c.Device(dev); !ok {
			return Plan{}, fmt.Errorf("core: module %q pinned to unknown device %q", m.Name, dev)
		}
		s.placed[name] = dev
	}
	return Plan{Placement: s.placed, Credits: credits}, nil
}

// pred returns the device of m's first placed predecessor in configuration
// order, "" without one.
func (s *placing) pred(m *ModuleConfig) string {
	for _, other := range s.cfg.Modules {
		if dev, ok := s.placed[other.Name]; ok && slices.Contains(other.Next, m.Name) {
			return dev
		}
	}
	return ""
}

// coLocate places an unpinned module by the co-location rule chain:
// service co-location, source anchor, the first placed predecessor's
// device, then the camera fallback.
func (s *placing) coLocate(m *ModuleConfig) (string, error) {
	// Modules with services co-locate with the device hosting the most of
	// them — a remote call_service per frame always costs more than any
	// script work. Ties break by name for determinism.
	counts := make(map[string]int)
	for _, svc := range m.Services {
		if host, ok := s.c.ServiceHost(svc); ok {
			counts[host]++
		}
	}
	best := ""
	for host, n := range counts {
		if best == "" || n > counts[best] || n == counts[best] && host < best {
			best = host
		}
	}
	if best != "" {
		return best, nil
	}
	// The source's first module stays on the camera device: frames are
	// born there, and moving ingestion would ship every raw frame.
	src := s.cfg.Source
	if m.Name == src.FirstModule && src.Device != "" {
		if _, ok := s.c.Device(src.Device); !ok {
			return "", fmt.Errorf("core: source device %q unknown", src.Device)
		}
		return src.Device, nil
	}
	if dev := s.pred(m); dev != "" {
		return dev, nil
	}
	if src.Device != "" {
		return src.Device, nil
	}
	return "", fmt.Errorf("core: cannot place module %q", m.Name)
}

// CoLocatePlanner is VideoPipe's strategy (§5.1): each module is placed on
// the device hosting the services it calls, so call_service never crosses
// the network; modules without services inherit their predecessor's device
// (the source module lands on the camera device). Pipelined execution
// admits two frames in flight, overlapping transfer with inference.
type CoLocatePlanner struct {
	// Credits overrides the in-flight frame allowance; <= 0 selects 2.
	Credits int
}

// Name identifies the strategy.
func (CoLocatePlanner) Name() string { return "videopipe" }

// Plan places each module next to its services.
func (p CoLocatePlanner) Plan(cfg *PipelineConfig, c *Cluster) (Plan, error) {
	if p.Credits <= 0 {
		p.Credits = 2
	}
	return place(cfg, c, p.Credits, (*placing).coLocate)
}

// BaselinePlanner reproduces the EdgeEye-inspired architecture of the
// paper's Fig. 5: every module runs on the camera device and each
// call_service is a remote API call, synchronous request-per-frame — one
// frame in flight at a time.
type BaselinePlanner struct{}

// Name identifies the strategy.
func (BaselinePlanner) Name() string { return "baseline" }

// Plan puts every unpinned module on the camera device.
func (BaselinePlanner) Plan(cfg *PipelineConfig, c *Cluster) (Plan, error) {
	dev := cfg.Source.Device
	if _, ok := c.Device(dev); !ok {
		return Plan{}, fmt.Errorf("core: baseline device %q unknown", dev)
	}
	return place(cfg, c, 1, func(*placing, *ModuleConfig) (string, error) { return dev, nil })
}
