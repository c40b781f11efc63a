package core

import (
	"slices"
	"strings"
	"time"

	"videopipe/internal/metrics"
)

// ModuleHealth is one module's observed state.
type ModuleHealth struct {
	Module string `json:"module"`
	Events uint64 `json:"events"`
	Errors uint64 `json:"errors"`
	// LastError is the text of the module's most recent script error.
	LastError string `json:"last_error,omitempty"`
	Stalled   bool   `json:"stalled,omitempty"`
}

// PipelineHealth is one pipeline's observed state.
type PipelineHealth struct {
	Pipeline  string `json:"pipeline"`
	Delivered uint64 `json:"delivered"`
	// Credits and CreditsAvail are the lane's credit window and its
	// unclaimed share.
	Credits      int  `json:"credits"`
	CreditsAvail int  `json:"credits_avail"`
	Stalled      bool `json:"stalled,omitempty"`
	// Degraded is set while the running pipeline is stalled, has a stalled
	// stage, or accrued module errors since the previous tick — the
	// graceful-degradation signal chaos experiments assert on.
	Degraded bool `json:"degraded,omitempty"`
	// Recoveries counts heal-phase interventions (module migrations) on
	// this pipeline, from the pipeline.<name>.recoveries meter.
	Recoveries uint64         `json:"recoveries,omitempty"`
	Modules    []ModuleHealth `json:"modules"`
}

// ServiceHealth is one service pool's observed state.
type ServiceHealth struct {
	Service   string `json:"service"`
	Device    string `json:"device"`
	Instances int    `json:"instances"`
	InFlight  int    `json:"in_flight"`
	Calls     uint64 `json:"calls"`
	// Restarts counts heal-phase pool restarts, from the
	// supervisor.restarts.<service> meter.
	Restarts uint64 `json:"restarts,omitempty"`
}

// Report is one tick's observation of the cluster; json.Marshal of a
// Report is the loop's machine-readable view.
type Report struct {
	At        time.Time        `json:"at"`
	Pipelines []PipelineHealth `json:"pipelines"`
	Services  []ServiceHealth  `json:"services"`
	// Journal is the tail of the loop's action journal, oldest first.
	Journal []string `json:"journal,omitempty"`
}

// journalTail is how many of the latest actions a report carries.
const journalTail = 16

// watch is the sample phase's bookkeeping for one pipeline: its
// instruments, looked up once, and the state the ticks carry — the last
// observation, the stall counters and the degraded time.
type watch struct {
	p      *Pipeline
	health PipelineHealth
	// events, errors and modStill parallel health.Modules.
	sinks, events, errors []*metrics.Meter
	drops, recoveries     *metrics.Meter
	// still and modStill count the ticks the delivered count, and each
	// module's event count, held while the pipeline ran.
	still        int
	modStill     []int
	lastErrors   uint64
	degradedSecs float64
}

// watchFor returns the pipeline's watch, creating it on first sight.
func (l *Loop) watchFor(p *Pipeline) *watch {
	if w, ok := l.lanes[p.name]; ok {
		return w
	}
	reg := l.cluster.Metrics()
	w := &watch{
		health:     PipelineHealth{Pipeline: p.name},
		drops:      reg.Meter("pipeline." + p.name + ".source_drops"),
		recoveries: reg.Meter("pipeline." + p.name + ".recoveries"),
	}
	for _, sink := range p.cfg.Sinks() {
		w.sinks = append(w.sinks, reg.Meter("pipeline."+p.prefixed(sink)+".frames_done"))
	}
	for _, mod := range p.Modules() {
		w.health.Modules = append(w.health.Modules, ModuleHealth{Module: mod})
		w.events = append(w.events, reg.Meter("module."+p.prefixed(mod)+".events"))
		w.errors = append(w.errors, reg.Meter("module."+p.prefixed(mod)+".errors"))
	}
	w.modStill = make([]int, len(w.events))
	l.lanes[p.name] = w
	return w
}

// sample is the first phase of a tick: it observes every pool and pipeline
// in sorted order, advances stall detection and degraded-time accounting,
// publishes the report, and returns the view the tune phase decides on.
func (l *Loop) sample() tunerSample {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()

	s := &l.obs
	s.services, l.rep.Services = s.services[:0], l.rep.Services[:0]
	l.svcNames = l.cluster.appendServiceNames(l.svcNames[:0])
	for _, name := range l.svcNames {
		pool, err := l.cluster.Pool(name)
		if err != nil {
			continue
		}
		spec := pool.Spec()
		workers := spec.Workers
		if workers <= 0 {
			workers = 1
		}
		size := pool.Size()
		s.services = append(s.services, svcSample{
			name:         name,
			size:         size,
			workers:      workers,
			queue:        pool.QueueDepth(),
			busy:         pool.BusyWorkers(),
			maxInstances: spec.MaxInstances,
			waitP99:      pool.RecentWaitP99(),
		})
		restarts, ok := l.restarts[name]
		if !ok {
			restarts = l.cluster.Metrics().Meter("supervisor.restarts." + name)
			l.restarts[name] = restarts
		}
		host, _ := l.cluster.ServiceHost(name)
		l.rep.Services = append(l.rep.Services, ServiceHealth{
			Service:   name,
			Device:    host,
			Instances: size,
			InFlight:  pool.InFlight(),
			Calls:     pool.Calls(),
			Restarts:  restarts.Count(),
		})
	}

	l.pipes = l.cluster.appendPipelines(l.pipes[:0])
	slices.SortFunc(l.pipes, func(a, b *Pipeline) int { return strings.Compare(a.name, b.name) })
	s.pipelines, l.rep.Pipelines = s.pipelines[:0], l.rep.Pipelines[:0]
	for _, p := range l.pipes {
		w := l.watchFor(p)
		w.p = p
		h := &w.health
		p.mu.Lock()
		running, floor := p.running, p.plan.Credits
		p.mu.Unlock()
		var delivered, errs uint64
		for _, m := range w.sinks {
			delivered += m.Count()
		}
		h.Stalled = l.stalled(delivered, &h.Delivered, &w.still, running)
		anyModStalled := false
		for i := range h.Modules {
			mh := &h.Modules[i]
			mh.Errors = w.errors[i].Count()
			errs += mh.Errors
			mh.Stalled = l.stalled(w.events[i].Count(), &mh.Events, &w.modStill[i], running)
			anyModStalled = anyModStalled || mh.Stalled
			if m, ok := p.Module(mh.Module); ok {
				mh.LastError = m.LastError()
			}
		}
		// Degraded time: the interval since the previous tick is charged to
		// the state that tick left the pipeline in.
		if h.Degraded {
			w.degradedSecs += now.Sub(l.rep.At).Seconds()
		}
		h.Degraded = running && (h.Stalled || anyModStalled || meterDelta(errs, &w.lastErrors) > 0)
		h.Recoveries = w.recoveries.Count()
		h.Credits, h.CreditsAvail = p.Credits(), p.CreditsAvail()
		l.rep.Pipelines = append(l.rep.Pipelines, *h)
		s.pipelines = append(s.pipelines, pipeSample{
			name:    p.name,
			credits: h.Credits,
			floor:   floor,
			avail:   h.CreditsAvail,
			drops:   w.drops.Count(),
			e2eP99:  p.recentP99(),
		})
	}
	l.rep.At = now
	return *s
}

// stalled advances one stall counter: a count that moved resets it, a
// count that held while the pipeline ran adds a tick, and StallAfter's
// worth of ticks is a stall. last keeps the count between ticks.
func (l *Loop) stalled(cur uint64, last *uint64, still *int, running bool) bool {
	if cur != *last {
		*last, *still = cur, 0
	} else if running {
		*still++
	}
	return *still >= ticks(l.stallAfter)
}

// meterDelta is how far a meter moved since *last, which it advances. A
// meter that moved backwards was reset (the experiment harness resets the
// registry between phases): that is a new baseline, not a wrap to ~2^64.
func meterDelta(cur uint64, last *uint64) uint64 {
	d := cur - *last
	if cur < *last {
		d = 0
	}
	*last = cur
	return d
}

// Report returns the last tick's observation with the journal's latest
// actions; the zero Report before the first tick.
func (l *Loop) Report() Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.rep
	r.Pipelines = slices.Clone(r.Pipelines)
	for i := range r.Pipelines {
		r.Pipelines[i].Modules = slices.Clone(r.Pipelines[i].Modules)
	}
	r.Services = slices.Clone(r.Services)
	for _, a := range l.journal[max(len(l.journal)-journalTail, 0):] {
		r.Journal = append(r.Journal, a.String())
	}
	return r
}

// DegradedSeconds reports the accumulated time the sample phase has
// observed the named pipeline degraded (stalled pipeline or module, or
// fresh module errors while running).
func (l *Loop) DegradedSeconds(pipeline string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if w, ok := l.lanes[pipeline]; ok {
		return w.degradedSecs
	}
	return 0
}
