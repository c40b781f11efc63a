package core

import (
	"time"

	"videopipe/internal/script"
)

// defaultHopPenalty is the placement cost of moving a frame across the
// network instead of keeping it on the predecessor's device, in the same
// abstract instruction units as pipecost handler weights. A serviceless
// module migrates off its predecessor's device only when that device has
// already accumulated more than this much per-frame work.
const defaultHopPenalty = int64(100_000)

// CostAwarePlanner extends the co-locating strategy with the pipecost
// signal: modules with services still land beside their services (that
// rule is VideoPipe's core result and cost cannot beat a saved network
// round-trip), but serviceless modules are placed by minimizing
// accumulated per-frame handler weight plus a hop penalty, instead of
// blindly inheriting the predecessor's device. Flow-control credits scale
// with the number of symbolic (DNN-backed) stages, so deeper inference
// pipelines get more frames in flight to overlap transfer with inference.
type CostAwarePlanner struct {
	// Credits overrides the in-flight frame allowance; <= 0 derives it
	// from the pipeline's symbolic stage count (2..4).
	Credits int
	// HopPenalty overrides the cross-device placement penalty; <= 0
	// selects defaultHopPenalty.
	HopPenalty int64
}

var _ Planner = CostAwarePlanner{}

// Name identifies the strategy.
func (CostAwarePlanner) Name() string { return "cost-aware" }

// measuredHopPenalty is defaultHopPenalty's analogue in the measured
// domain: re-planning scores use observed per-event handle time in
// nanoseconds, so the cross-device penalty is priced as one frame
// transfer's worth of latency.
const measuredHopPenalty = int64(10 * time.Millisecond)

// Plan places modules in topological order, maintaining a per-device load
// ledger of the handler weights already assigned there.
func (p CostAwarePlanner) Plan(cfg *PipelineConfig, c *Cluster) (Plan, error) {
	costs := cfg.CostReports()
	hop := p.HopPenalty
	if hop <= 0 {
		hop = defaultHopPenalty
	}
	placement, err := p.place(cfg, c, func(name string) int64 { return costs[name].EventWeight() }, hop)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Placement: placement, Credits: p.credits(cfg, costs)}, nil
}

// PlanMeasured re-scores placement with measured per-module service time
// (nanoseconds per event) replacing the static pipecost weight — the
// tuner's load-aware re-planning input. Modules with no measurement yet
// score as free; the placement rules (pins, service co-location, source
// anchoring) are identical to Plan, so only the load-balancing of
// serviceless modules can move.
func (p CostAwarePlanner) PlanMeasured(cfg *PipelineConfig, c *Cluster, measured map[string]int64) (Plan, error) {
	hop := p.HopPenalty
	if hop <= 0 {
		hop = measuredHopPenalty
	}
	placement, err := p.place(cfg, c, func(name string) int64 {
		if ns, ok := measured[name]; ok && ns > 0 {
			return ns
		}
		return 0
	}, hop)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Placement: placement, Credits: p.credits(cfg, cfg.CostReports())}, nil
}

// place runs the placement loop with an arbitrary weight source.
func (p CostAwarePlanner) place(cfg *PipelineConfig, c *Cluster, weightOf func(string) int64, hop int64) (map[string]string, error) {
	order, err := cfg.TopoOrder()
	if err != nil {
		return nil, err
	}
	placement := make(map[string]string, len(cfg.Modules))
	load := make(map[string]int64)
	for _, name := range order {
		m, _ := cfg.Module(name)
		dev, err := placeModule(cfg, c, m, load, func() string {
			return leastLoaded(cfg, c, m, placement, load, hop)
		})
		if err != nil {
			return nil, err
		}
		placement[name] = dev
		load[dev] += weightOf(name)
	}
	return placement, nil
}

// credits derives the flow-control window from the symbolic stage count.
func (p CostAwarePlanner) credits(cfg *PipelineConfig, costs map[string]script.CostReport) int {
	if p.Credits > 0 {
		return p.Credits
	}
	symbolic := 0
	for i := range cfg.Modules {
		if costs[cfg.Modules[i].Name].EventSymbolic() {
			symbolic++
		}
	}
	credits := 1 + symbolic
	if credits < 2 {
		credits = 2
	}
	if credits > 4 {
		credits = 4
	}
	return credits
}

// leastLoaded is the cost-aware serviceless step: minimize accumulated
// handler weight plus a hop penalty for leaving the predecessor's device.
// With an idle cluster this reduces to the co-locating inherit rule; it
// diverges exactly when the predecessor's device already carries more
// than a hop's worth of per-frame work.
func leastLoaded(cfg *PipelineConfig, c *Cluster, m *ModuleConfig,
	placed map[string]string, load map[string]int64, hop int64) string {
	predDev := ""
	for _, other := range cfg.Modules {
		for _, next := range other.Next {
			if next != m.Name {
				continue
			}
			if dev, ok := placed[other.Name]; ok {
				predDev = dev
			}
		}
	}
	candidates := c.DeviceNames()
	best, bestScore := "", int64(-1)
	for _, dev := range candidates {
		if c.IsDown(dev) {
			continue
		}
		score := load[dev]
		if predDev != "" && dev != predDev {
			score += hop
		}
		better := bestScore < 0 || score < bestScore
		if !better && score == bestScore {
			// Deterministic ties: prefer staying with the predecessor,
			// then lexicographic order.
			better = dev == predDev || (best != predDev && dev < best)
		}
		if better {
			best, bestScore = dev, score
		}
	}
	return best
}
