package core

import (
	"fmt"
	"slices"
	"sort"
	"time"
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

// placing is one run of the placement loop: the modules placed so far and
// the per-device load ledger of the weights charged to them.
type placing struct {
	cfg    *PipelineConfig
	c      *Cluster
	placed map[string]string
	load   map[string]int64
}

// place is the placement loop every planner runs, returning a plan that
// admits credits frames. Modules go in topological order; an explicit pin
// wins, and every other module goes where the strategy's choose says.
// weight, when non-nil, charges each placed module's per-frame work to its
// device's load.
func place(cfg *PipelineConfig, c *Cluster, credits int, weight func(string) int64, choose func(*placing, *ModuleConfig) (string, error)) (Plan, error) {
	order, err := cfg.TopoOrder()
	if err != nil {
		return Plan{}, err
	}
	s := &placing{cfg: cfg, c: c, placed: make(map[string]string, len(cfg.Modules)), load: make(map[string]int64)}
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
		if weight != nil {
			s.load[dev] += weight(name)
		}
	}
	return Plan{Placement: s.placed, Credits: credits}, nil
}

// preds lists the devices of m's already-placed predecessors in
// configuration order. The first is the one a serviceless module follows.
func (s *placing) preds(m *ModuleConfig) []string {
	var devs []string
	for _, other := range s.cfg.Modules {
		if dev, ok := s.placed[other.Name]; ok && slices.Contains(other.Next, m.Name) {
			devs = append(devs, dev)
		}
	}
	return devs
}

// coLocate is the rule chain the co-locating strategies share for an
// unpinned module: service co-location, source anchor, then the strategy's
// serviceless step (handed the first placed predecessor's device, ""
// without one; it returns "" when it has no opinion), then the camera
// fallback.
func (s *placing) coLocate(m *ModuleConfig, serviceless func(pred string) string) (string, error) {
	// Modules with services co-locate with the device hosting the most of
	// them — a remote call_service per frame always costs more than any
	// script work. Ties break by lighter accumulated load, then by name for
	// determinism.
	counts := make(map[string]int)
	for _, svc := range m.Services {
		if host, ok := s.c.ServiceHost(svc); ok {
			counts[host]++
		}
	}
	best := ""
	for host, n := range counts {
		if best == "" || n > counts[best] || n == counts[best] &&
			(s.load[host] < s.load[best] || s.load[host] == s.load[best] && host < best) {
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
	pred := ""
	if devs := s.preds(m); len(devs) > 0 {
		pred = devs[0]
	}
	if dev := serviceless(pred); dev != "" {
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
	return place(cfg, c, p.Credits, nil, func(s *placing, m *ModuleConfig) (string, error) {
		return s.coLocate(m, func(pred string) string { return pred })
	})
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
	return place(cfg, c, 1, nil, func(*placing, *ModuleConfig) (string, error) { return dev, nil })
}

// staticHopCost is the placement cost of moving a frame across the
// network instead of keeping it on the predecessor's device, in the same
// abstract instruction units as pipecost handler weights. A serviceless
// module migrates off its predecessor's device only when that device has
// already accumulated more than this much per-frame work.
const staticHopCost = int64(100_000)

// CostAwarePlanner extends the co-locating strategy with the pipecost
// signal: modules with services still land beside their services (that
// rule is VideoPipe's core result and cost cannot beat a saved network
// round-trip), but serviceless modules are placed by minimizing
// accumulated per-frame handler weight plus a hop penalty, instead of
// blindly inheriting the predecessor's device. Flow-control credits scale
// with the number of symbolic (DNN-backed) stages, so deeper inference
// pipelines get more frames in flight to overlap transfer with inference.
type CostAwarePlanner struct{}

// Name identifies the strategy.
func (CostAwarePlanner) Name() string { return "cost-aware" }

// Plan places modules weighted by their static handler cost and derives
// the flow-control window from the symbolic stage count (2..4).
func (CostAwarePlanner) Plan(cfg *PipelineConfig, c *Cluster) (Plan, error) {
	costs := cfg.CostReports()
	symbolic := 0
	for i := range cfg.Modules {
		if costs[cfg.Modules[i].Name].EventSymbolic() {
			symbolic++
		}
	}
	weight := func(name string) int64 { return costs[name].EventWeight() }
	return place(cfg, c, min(max(1+symbolic, 2), 4), weight, func(s *placing, m *ModuleConfig) (string, error) {
		return s.coLocate(m, s.leastLoaded)
	})
}

// leastLoaded is the cost-aware serviceless step: minimize accumulated
// handler weight plus a hop penalty for leaving the predecessor's device.
// With an idle cluster this reduces to the co-locating inherit rule; it
// diverges exactly when the predecessor's device already carries more
// than a hop's worth of per-frame work.
func (s *placing) leastLoaded(pred string) string {
	best, bestScore := "", int64(-1)
	for _, dev := range s.c.DeviceNames() {
		score := s.load[dev]
		if pred != "" && dev != pred {
			score += staticHopCost
		}
		better := bestScore < 0 || score < bestScore
		if !better && score == bestScore {
			// Deterministic ties: prefer staying with the predecessor,
			// then lexicographic order.
			better = dev == pred || (best != pred && dev < best)
		}
		if better {
			best, bestScore = dev, score
		}
	}
	return best
}

// frameCodecCost estimates one codec pass for a frame crossing devices:
// JPEG at the applications' 480x360 geometry.
const frameCodecCost = 4 * time.Millisecond

// LatencyAwarePlanner implements the paper's "scheduling" future work
// (§7): instead of the fixed co-location rule, it places each module by
// minimizing an explicit per-frame latency estimate built from the
// cluster's link profiles — inbound frame-transfer cost from predecessors
// plus remote-service-call penalties. On the paper's topology it derives
// the same placement as CoLocatePlanner; on clusters where a module's
// services are split across devices, or where links are asymmetric, it
// weighs the trade-off instead of guessing. Two frames are in flight.
type LatencyAwarePlanner struct{}

// Name identifies the strategy.
func (LatencyAwarePlanner) Name() string { return "latency-aware" }

// Plan greedily assigns each module (in topological order) to the device
// with the lowest estimated per-frame cost.
func (LatencyAwarePlanner) Plan(cfg *PipelineConfig, c *Cluster) (Plan, error) {
	// A frame's JPEG size at the applications' scene complexity.
	frameBytes := 40 << 10
	if cfg.Source.Width > 0 && cfg.Source.Height > 0 {
		frameBytes = cfg.Source.Width * cfg.Source.Height / 4
	}
	devices := c.DeviceNames()
	sort.Strings(devices)
	return place(cfg, c, 2, nil, func(s *placing, m *ModuleConfig) (string, error) {
		best := ""
		bestCost := time.Duration(1<<62 - 1)
		for _, dev := range devices {
			if cost := moduleCost(s, m, dev, frameBytes); cost < bestCost {
				best, bestCost = dev, cost
			}
		}
		if best == "" {
			return "", fmt.Errorf("core: no placement candidate for module %q", m.Name)
		}
		return best, nil
	})
}

// moduleCost estimates the per-frame latency this module adds when placed
// on dev.
func moduleCost(s *placing, m *ModuleConfig, dev string, frameBytes int) time.Duration {
	var cost time.Duration

	// Inbound frame transfers from already-placed predecessors (or from
	// the camera for the first module).
	if m.Name == s.cfg.Source.FirstModule && s.cfg.Source.Device != "" {
		cost += transferCost(s.c, s.cfg.Source.Device, dev, frameBytes)
	}
	for _, from := range s.preds(m) {
		cost += transferCost(s.c, from, dev, frameBytes)
	}

	// Remote service penalties: a call to a service hosted elsewhere pays
	// a round trip plus the frame upload.
	for _, svc := range m.Services {
		host, ok := s.c.ServiceHost(svc)
		if !ok || host == dev {
			continue
		}
		profile := s.c.Network().Profile(dev, host)
		cost += profile.RTT() + frameCodecCost + bandwidthDelay(profile.Bandwidth, frameBytes)
	}
	return cost
}

// transferCost estimates moving one frame from device a to device b.
func transferCost(c *Cluster, a, b string, frameBytes int) time.Duration {
	if a == b {
		return 0
	}
	profile := c.Network().Profile(a, b)
	return frameCodecCost + profile.Latency + bandwidthDelay(profile.Bandwidth, frameBytes)
}

func bandwidthDelay(bandwidth int64, bytes int) time.Duration {
	if bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / float64(bandwidth) * float64(time.Second))
}
