package core

import (
	"fmt"
	"sort"
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

// CoLocatePlanner is VideoPipe's strategy (§5.1): each module is placed on
// the device hosting the services it calls, so call_service never crosses
// the network; modules without services inherit their predecessor's device
// (the source module lands on the camera device). Pipelined execution
// admits two frames in flight, overlapping transfer with inference.
type CoLocatePlanner struct {
	// Credits overrides the in-flight frame allowance; <= 0 selects 2.
	Credits int
}

var _ Planner = CoLocatePlanner{}

// Name identifies the strategy.
func (CoLocatePlanner) Name() string { return "videopipe" }

// Plan places each module next to its services.
func (p CoLocatePlanner) Plan(cfg *PipelineConfig, c *Cluster) (Plan, error) {
	order, err := cfg.TopoOrder()
	if err != nil {
		return Plan{}, err
	}
	placement := make(map[string]string, len(cfg.Modules))

	for _, name := range order {
		m, _ := cfg.Module(name)
		dev, err := placeModule(cfg, c, m, nil, func() string {
			// Inherit from an already-placed predecessor.
			for _, other := range cfg.Modules {
				for _, next := range other.Next {
					if next != m.Name {
						continue
					}
					if dev, ok := placement[other.Name]; ok {
						return dev
					}
				}
			}
			return ""
		})
		if err != nil {
			return Plan{}, err
		}
		placement[name] = dev
	}

	credits := p.Credits
	if credits <= 0 {
		credits = 2
	}
	return Plan{Placement: placement, Credits: credits}, nil
}

// placeModule is the rule chain every co-locating planner shares: pin,
// service co-location, source anchor, then the strategy's own serviceless
// step, then the camera fallback. load is the per-device work already
// placed (nil when the strategy keeps no ledger); serviceless returns ""
// when it has no opinion.
func placeModule(cfg *PipelineConfig, c *Cluster, m *ModuleConfig, load map[string]int64, serviceless func() string) (string, error) {
	// 1. Explicit pin wins.
	if m.Device != "" {
		if _, ok := c.Device(m.Device); !ok {
			return "", fmt.Errorf("core: module %q pinned to unknown device %q", m.Name, m.Device)
		}
		return m.Device, nil
	}
	// 2. Modules with services co-locate with the device hosting the most
	// of them — a remote call_service per frame always costs more than any
	// script work. Ties break by lighter accumulated load, then by name
	// for determinism.
	if len(m.Services) > 0 {
		counts := make(map[string]int)
		for _, svc := range m.Services {
			if host, ok := c.ServiceHost(svc); ok {
				counts[host]++
			}
		}
		if len(counts) > 0 {
			hosts := make([]string, 0, len(counts))
			for h := range counts {
				hosts = append(hosts, h)
			}
			sort.Slice(hosts, func(i, j int) bool {
				if counts[hosts[i]] != counts[hosts[j]] {
					return counts[hosts[i]] > counts[hosts[j]]
				}
				if load[hosts[i]] != load[hosts[j]] {
					return load[hosts[i]] < load[hosts[j]]
				}
				return hosts[i] < hosts[j]
			})
			return hosts[0], nil
		}
	}
	// 3. The source's first module stays on the camera device: frames are
	// born there, and moving ingestion would ship every raw frame.
	if m.Name == cfg.Source.FirstModule && cfg.Source.Device != "" {
		if _, ok := c.Device(cfg.Source.Device); !ok {
			return "", fmt.Errorf("core: source device %q unknown", cfg.Source.Device)
		}
		return cfg.Source.Device, nil
	}
	// 4. Serviceless modules: the strategy decides.
	if dev := serviceless(); dev != "" {
		return dev, nil
	}
	// 5. Fall back to the camera device.
	if cfg.Source.Device != "" {
		return cfg.Source.Device, nil
	}
	return "", fmt.Errorf("core: cannot place module %q", m.Name)
}

// BaselinePlanner reproduces the EdgeEye-inspired architecture of the
// paper's Fig. 5: every module runs on one device (the camera device by
// default) and each call_service is a remote API call, synchronous
// request-per-frame — one frame in flight at a time.
type BaselinePlanner struct {
	// Device hosts all modules; empty selects the source device.
	Device string
	// Credits overrides the in-flight allowance; <= 0 selects 1
	// (synchronous request/response, as in EdgeEye applications).
	Credits int
}

var _ Planner = BaselinePlanner{}

// Name identifies the strategy.
func (BaselinePlanner) Name() string { return "baseline" }

// Plan puts every module on one device.
func (p BaselinePlanner) Plan(cfg *PipelineConfig, c *Cluster) (Plan, error) {
	dev := p.Device
	if dev == "" {
		dev = cfg.Source.Device
	}
	if _, ok := c.Device(dev); !ok {
		return Plan{}, fmt.Errorf("core: baseline device %q unknown", dev)
	}
	placement := make(map[string]string, len(cfg.Modules))
	for _, m := range cfg.Modules {
		placement[m.Name] = dev
	}
	credits := p.Credits
	if credits <= 0 {
		credits = 1
	}
	return Plan{Placement: placement, Credits: credits}, nil
}

// PinnedPlanner places modules exactly as configured (each ModuleConfig
// must carry a Device), for experiments that need manual control.
type PinnedPlanner struct {
	// Credits is the in-flight allowance; <= 0 selects 2.
	Credits int
}

var _ Planner = PinnedPlanner{}

// Name identifies the strategy.
func (PinnedPlanner) Name() string { return "pinned" }

// Plan follows the per-module Device pins.
func (p PinnedPlanner) Plan(cfg *PipelineConfig, c *Cluster) (Plan, error) {
	placement := make(map[string]string, len(cfg.Modules))
	for _, m := range cfg.Modules {
		if m.Device == "" {
			return Plan{}, fmt.Errorf("core: pinned plan: module %q has no device", m.Name)
		}
		if _, ok := c.Device(m.Device); !ok {
			return Plan{}, fmt.Errorf("core: pinned plan: module %q pinned to unknown device %q", m.Name, m.Device)
		}
		placement[m.Name] = m.Device
	}
	credits := p.Credits
	if credits <= 0 {
		credits = 2
	}
	return Plan{Placement: placement, Credits: credits}, nil
}
