package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"videopipe/internal/device"
	"videopipe/internal/services"
)

// Monitor implements the paper's stated future work (§7: "we aim to
// include automatic deployment, scheduling and monitoring components"):
// a cluster-level observer that samples pipeline progress, module errors
// and service-pool utilization and detects stalled pipelines. (Scaling
// saturated pools is the Tuner's job.)
type Monitor struct {
	cluster *Cluster
	// Interval is the sampling period; zero selects 250 ms.
	Interval time.Duration
	// StallAfter is how long a running pipeline may go without completing
	// a frame before it is flagged; zero selects 2 s.
	StallAfter time.Duration

	mu       sync.Mutex
	lastDone map[string]uint64
	lastMove map[string]time.Time
	stalled  map[string]bool
	// per-module stall tracking, keyed pipeline+"."+module.
	modEvents map[string]uint64
	modMove   map[string]time.Time
	modStall  map[string]bool
	// lastErrors tracks per-pipeline module error totals between samples.
	lastErrors map[string]uint64
	// degraded state: when a sample finds a running pipeline stalled (or a
	// module stalled, or fresh errors), the time since the previous sample
	// accrues to degradedSecs and the pipeline.<name>.degraded_ms meter.
	degraded     map[string]bool
	lastSample   map[string]time.Time
	degradedSecs map[string]float64
}

// NewMonitor creates a monitor for the cluster.
func NewMonitor(c *Cluster) *Monitor {
	return &Monitor{
		cluster:      c,
		lastDone:     make(map[string]uint64),
		lastMove:     make(map[string]time.Time),
		stalled:      make(map[string]bool),
		modEvents:    make(map[string]uint64),
		modMove:      make(map[string]time.Time),
		modStall:     make(map[string]bool),
		lastErrors:   make(map[string]uint64),
		degraded:     make(map[string]bool),
		lastSample:   make(map[string]time.Time),
		degradedSecs: make(map[string]float64),
	}
}

// DegradedSeconds reports the accumulated time Sample has observed the
// named pipeline in a degraded state (stalled pipeline or module, or
// fresh module errors while running).
func (m *Monitor) DegradedSeconds(pipeline string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degradedSecs[pipeline]
}

// ModuleHealth is one module's observed state.
type ModuleHealth struct {
	Module  string
	Events  uint64
	Errors  uint64
	Stalled bool
}

// PipelineHealth is one pipeline's observed state.
type PipelineHealth struct {
	Pipeline  string
	Delivered uint64
	Stalled   bool
	// Degraded is set while the running pipeline is stalled, has a stalled
	// stage, or accrued module errors since the previous sample — the
	// graceful-degradation signal chaos experiments assert on.
	Degraded bool
	// Recoveries counts supervisor interventions (module migrations) on
	// this pipeline, from the pipeline.<name>.recoveries meter.
	Recoveries uint64
	Modules    []ModuleHealth
}

// ServiceHealth is one service pool's observed state.
type ServiceHealth struct {
	Service   string
	Device    string
	Instances int
	InFlight  int
	Calls     uint64
	// Restarts counts supervisor pool restarts, from the
	// supervisor.restarts.<service> meter.
	Restarts uint64
	// Breaker is the worst per-device circuit state observed for this
	// service (open > half-open > closed); zero when no device has called
	// it remotely yet.
	Breaker services.BreakerState
}

// Report is a point-in-time view of the cluster.
type Report struct {
	At        time.Time
	Pipelines []PipelineHealth
	Services  []ServiceHealth
}

// String renders the report for operators.
func (r Report) String() string {
	var b strings.Builder
	for _, p := range r.Pipelines {
		status := "ok"
		switch {
		case p.Stalled:
			status = "STALLED"
		case p.Degraded:
			status = "DEGRADED"
		}
		recov := ""
		if p.Recoveries > 0 {
			recov = fmt.Sprintf(" recoveries=%d", p.Recoveries)
		}
		fmt.Fprintf(&b, "pipeline %-20s delivered=%-6d %s%s\n", p.Pipeline, p.Delivered, status, recov)
		for _, mod := range p.Modules {
			note := ""
			if mod.Stalled {
				note = " STALLED"
			}
			fmt.Fprintf(&b, "  module %-28s events=%-6d errors=%d%s\n", mod.Module, mod.Events, mod.Errors, note)
		}
	}
	for _, s := range r.Services {
		extra := ""
		if s.Restarts > 0 {
			extra += fmt.Sprintf(" restarts=%d", s.Restarts)
		}
		if s.Breaker != 0 && s.Breaker != services.BreakerClosed {
			extra += " breaker=" + s.Breaker.String()
		}
		fmt.Fprintf(&b, "service %-20s on %-8s instances=%d in_flight=%d calls=%d%s\n",
			s.Service, s.Device, s.Instances, s.InFlight, s.Calls, extra)
	}
	return b.String()
}

// Sample takes one observation, updating stall tracking. It does not
// block.
func (m *Monitor) Sample() Report {
	now := time.Now()
	reg := m.cluster.Metrics()

	m.mu.Lock()
	defer m.mu.Unlock()

	rep := Report{At: now}

	m.cluster.mu.Lock()
	pipelines := append([]*Pipeline(nil), m.cluster.pipelines...)
	m.cluster.mu.Unlock()

	stallAfter := m.StallAfter
	if stallAfter <= 0 {
		stallAfter = 2 * time.Second
	}

	for _, p := range pipelines {
		ph := PipelineHealth{
			Pipeline:   p.Name(),
			Recoveries: reg.Meter("pipeline." + p.Name() + ".recoveries").Count(),
		}
		running := p.isRunning()
		for _, sink := range p.cfg.Sinks() {
			ph.Delivered += reg.Meter("pipeline." + p.prefixed(sink) + ".frames_done").Count()
		}
		var errTotal uint64
		anyModStalled := false
		for _, mod := range p.Modules() {
			mh := ModuleHealth{
				Module: mod,
				Events: reg.Meter("module." + p.prefixed(mod) + ".events").Count(),
				Errors: reg.Meter("module." + p.prefixed(mod) + ".errors").Count(),
			}
			errTotal += mh.Errors

			// Per-module stall detection mirrors the pipeline-level check
			// on the module's event counter, so a report names the exact
			// stage a partition or pause has frozen.
			mkey := p.Name() + "." + mod
			if mh.Events != m.modEvents[mkey] {
				m.modEvents[mkey] = mh.Events
				m.modMove[mkey] = now
				m.modStall[mkey] = false
			} else if running {
				if last, seen := m.modMove[mkey]; seen && now.Sub(last) > stallAfter {
					m.modStall[mkey] = true
				} else if !seen {
					m.modMove[mkey] = now
				}
			}
			mh.Stalled = m.modStall[mkey]
			if mh.Stalled {
				anyModStalled = true
			}
			ph.Modules = append(ph.Modules, mh)
		}

		// Stall detection: a pipeline is stalled when it is mid-run and
		// the delivered counter has not moved within the window.
		key := p.Name()
		if ph.Delivered != m.lastDone[key] {
			m.lastDone[key] = ph.Delivered
			m.lastMove[key] = now
			m.stalled[key] = false
		} else if running {
			if last, seen := m.lastMove[key]; seen && now.Sub(last) > stallAfter {
				m.stalled[key] = true
			} else if !seen {
				m.lastMove[key] = now
			}
		}
		ph.Stalled = m.stalled[key]

		errDelta := errTotal - m.lastErrors[key]
		m.lastErrors[key] = errTotal
		ph.Degraded = running && (ph.Stalled || anyModStalled || errDelta > 0)

		// Accrue degraded time: the interval since the previous sample is
		// attributed to whichever state that sample ended in.
		if prev, seen := m.lastSample[key]; seen && m.degraded[key] {
			interval := now.Sub(prev)
			m.degradedSecs[key] += interval.Seconds()
			reg.Meter("pipeline." + key + ".degraded_ms").MarkN(uint64(interval.Milliseconds()))
		}
		m.degraded[key] = ph.Degraded
		m.lastSample[key] = now

		rep.Pipelines = append(rep.Pipelines, ph)
	}

	for _, svc := range m.cluster.ServiceNames() {
		pool, err := m.cluster.Pool(svc)
		if err != nil {
			continue
		}
		host, _ := m.cluster.ServiceHost(svc)
		rep.Services = append(rep.Services, ServiceHealth{
			Service:   svc,
			Device:    host,
			Instances: pool.Size(),
			InFlight:  pool.InFlight(),
			Calls:     pool.Calls(),
			Restarts:  reg.Meter("supervisor.restarts." + svc).Count(),
			Breaker:   m.worstBreaker(svc),
		})
	}
	sort.Slice(rep.Services, func(i, j int) bool { return rep.Services[i].Service < rep.Services[j].Service })

	return rep
}

// worstBreaker aggregates a service's circuit state across all devices:
// any open breaker dominates, then half-open, then closed.
func (m *Monitor) worstBreaker(service string) services.BreakerState {
	var worst services.BreakerState
	rank := func(s services.BreakerState) int {
		switch s {
		case services.BreakerOpen:
			return 3
		case services.BreakerHalfOpen:
			return 2
		case services.BreakerClosed:
			return 1
		default:
			return 0
		}
	}
	m.cluster.mu.Lock()
	devs := make([]*device.Device, 0, len(m.cluster.devices))
	for _, d := range m.cluster.devices {
		devs = append(devs, d)
	}
	m.cluster.mu.Unlock()
	for _, d := range devs {
		if s, ok := d.BreakerStates()[service]; ok && rank(s) > rank(worst) {
			worst = s
		}
	}
	return worst
}

// Run samples periodically until ctx is done, delivering each report to
// sink (which may be nil for scaling-only monitors).
func (m *Monitor) Run(ctx context.Context, sink func(Report)) {
	interval := m.Interval
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			rep := m.Sample()
			if sink != nil {
				sink(rep)
			}
		}
	}
}

// isRunning reports whether the pipeline is mid-Run.
func (p *Pipeline) isRunning() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running
}
