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
}
