// Package services implements VideoPipe's stateless services (paper §2.2):
// the container-hosted units that do the heavy framewise video analytics —
// pose detection, activity recognition, rep counting, object detection,
// image classification, face detection, fall detection and display
// composition.
//
// Services are stateless by contract: every call carries all the data it
// needs (including, for the sequence-dependent algorithms, an opaque state
// blob the caller owns), so instances can be shared across pipelines and
// scaled horizontally. Arguments and results are PipeScript values — the
// one payload representation inside a device — so a module calling a
// co-located service hands its message over and takes the result back with
// no conversion in either direction (Request and Response say who owns
// what); only a call that really leaves the device is encoded, by the
// script package's JSON codec (server.go). Each instance models a container: a worker-
// concurrency limit, a per-call compute cost calibrated to the paper's DNN
// latencies (scaled by the hosting device's CPU factor), and a partially
// serialized execution section that produces realistic contention when
// multiple pipelines share one instance.
package services

import (
	"context"
	"fmt"
	"time"

	"videopipe/internal/frame"
	"videopipe/internal/script"
)

// Request is one service invocation's input.
type Request struct {
	// Args carries the named arguments as script values — for a co-located
	// caller the very fields of the message object its module passed to
	// call_service, not a copy. They are lent, read-only, until the handler
	// returns: a handler must not write to Args or to anything reachable
	// from it, and must not keep a reference to an array or object in it
	// past its return (scalars and strings are immutable and free to keep;
	// returning an argument inside the result hands it back to its owner
	// and is fine).
	Args map[string]script.Value
	// Frame carries pixel data for frame-consuming services. Co-located
	// callers pass the stored frame directly (zero copy); remote callers'
	// frames arrive decoded by the transport layer.
	Frame *frame.Frame
}

// Response is one service invocation's output.
type Response struct {
	// Result carries the named results as script values. The caller owns
	// it from the moment the handler returns — for a co-located module it
	// becomes the object call_service evaluates to, as is — so a handler
	// builds a fresh map per call and shares no array or object in it with
	// another call's result.
	Result map[string]script.Value
	// Frame carries pixel output for frame-producing services (display).
	Frame *frame.Frame
}

// Handler is a service implementation. Handlers must be stateless and safe
// for concurrent use.
type Handler func(ctx context.Context, req Request) (Response, error)

// Spec describes one deployable service type.
type Spec struct {
	// Name is the identifier modules use in call_service and configs.
	Name string
	// Cost is the simulated inference latency on a reference (desktop,
	// CPUFactor 1.0) device. The handler's real compute time counts toward
	// it; only the remainder is slept.
	Cost time.Duration
	// SerialFraction is the share of Cost executed under an instance-wide
	// lock, modelling the non-parallel portion of accelerator inference.
	// Zero means fully parallel across workers.
	SerialFraction float64
	// Workers is the per-instance concurrency limit; <= 0 means 1.
	Workers int
	// NeedsFrame documents whether requests must carry a frame.
	NeedsFrame bool
	// Handler is the implementation.
	Handler Handler

	// MaxBatch caps how many queued requests a pool's batch collector may
	// coalesce into one invocation; <= 1 means the service does not
	// support batching. Batching is off until Pool.SetBatching enables it.
	MaxBatch int
	// BatchLinger is the longest a batch collector may hold the first
	// request of a batch while waiting for more; zero means dispatch
	// immediately (batches only form from already-queued requests).
	BatchLinger time.Duration
	// MaxInstances bounds the tuner's autoscaling for this service;
	// <= 0 means the deployed size is also the ceiling (no autoscaling).
	MaxInstances int
}

// validate checks a spec for registration.
func (s Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("services: spec missing name")
	}
	if s.Handler == nil {
		return fmt.Errorf("services: spec %q missing handler", s.Name)
	}
	if s.Cost < 0 {
		return fmt.Errorf("services: spec %q has negative cost", s.Name)
	}
	if s.SerialFraction < 0 || s.SerialFraction > 1 {
		return fmt.Errorf("services: spec %q has serial fraction %v outside [0,1]", s.Name, s.SerialFraction)
	}
	if s.BatchLinger < 0 {
		return fmt.Errorf("services: spec %q has negative batch linger", s.Name)
	}
	return nil
}

// Registry is a catalogue of service specs. The paper's list of services an
// application may use is predefined (§3.1); the registry is that list.
type Registry struct {
	specs map[string]Spec
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{specs: make(map[string]Spec)}
}

// Register adds a spec; re-registering a name is an error.
func (r *Registry) Register(s Spec) error {
	if err := s.validate(); err != nil {
		return err
	}
	if _, dup := r.specs[s.Name]; dup {
		return fmt.Errorf("services: %q already registered", s.Name)
	}
	r.specs[s.Name] = s
	return nil
}

// Lookup finds a spec by name.
func (r *Registry) Lookup(name string) (Spec, error) {
	s, ok := r.specs[name]
	if !ok {
		return Spec{}, fmt.Errorf("services: unknown service %q", name)
	}
	return s, nil
}

// Names reports the registered service names (unordered).
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.specs))
	for n := range r.specs {
		out = append(out, n)
	}
	return out
}

// ---- argument helpers shared by the standard services ----

// argString extracts a string argument.
func argString(args map[string]script.Value, key string) (string, bool) {
	s, ok := args[key].(string)
	return s, ok
}

// argFloat extracts a numeric argument.
func argFloat(args map[string]script.Value, key string) (float64, bool) {
	f, ok := args[key].(float64)
	return f, ok
}
