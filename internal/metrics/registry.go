package metrics

import (
	"sort"
	"sync"
)

// Registry is a named collection of histograms and meters, used to gather
// per-stage latencies and per-pipeline frame rates for an experiment run.
// The zero value is ready to use.
type Registry struct {
	mu     sync.Mutex
	hists  map[string]*Histogram
	meters map[string]*Meter
	gauges map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Meter returns the meter registered under name, creating it on first use.
func (r *Registry) Meter(name string) *Meter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.meters == nil {
		r.meters = make(map[string]*Meter)
	}
	m, ok := r.meters[name]
	if !ok {
		m = &Meter{}
		r.meters[name] = m
	}
	return m
}

// Gauge returns the gauge registered under name, creating it on first
// use. Gauge names are held to the same generated registry as meters and
// histograms (the metername analyzer checks call sites).
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// HistogramNames reports the sorted names of all registered histograms.
func (r *Registry) HistogramNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Reset clears every registered instrument but keeps the registrations.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, h := range r.hists {
		h.Reset()
	}
	for _, m := range r.meters {
		m.Reset()
	}
	for _, g := range r.gauges {
		g.Reset()
	}
}
