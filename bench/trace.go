package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the harness's own files, around calls into each package's public API;
// parent is the id of the span that caused this one (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time (the injector, then the probes). Every method is a
// no-op on a nil tracer, which is what the untraced run passes.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span and returns its id.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer,
		StartNS: int64(time.Since(t.epoch)), Workload: t.workload,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.epoch))
}

// add records a span measured elsewhere, ending now.
func (t *tracer) add(parent int, layer, name string, d time.Duration) {
	if t == nil {
		return
	}
	id := t.begin(parent, layer, name)
	t.spans[id-1].EndNS = t.spans[id-1].StartNS
	t.spans[id-1].StartNS -= int64(d)
}

// durations returns the durations of every span called name, ascending.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNS-s.StartNS))
		}
	}
	slices.Sort(out)
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.EndNS - s.StartNS
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Layer] += time.Duration(max(s.EndNS-s.StartNS-covered[s.ID], 0))
	}
	return out
}

// write stores the spans as a JSON array in dir/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// heapInUse reads the live-object heap size without stopping the world.
func heapInUse() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}
