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
	// Args carries the named arguments as a script object — for a
	// co-located caller the very message object its module passed to
	// call_service, not a copy; when the module wrote that message as an
	// object literal in the call, Args is the call site's scratch object,
	// emptied and reused by the site's next call (script.Signature.Lends).
	// It is lent, read-only, until the handler returns: a handler must not
	// write to Args or to anything reachable from it, and must not keep
	// Args, or a reference to an array or object in it, past its return
	// (scalars and strings are immutable and free to keep). Returning Args
	// or a container in it inside the result hands it back to its owner
	// and is fine: a scratch handed back is the module's to keep, and its
	// call site makes a new one. A nil Args reads as no arguments.
	Args *script.Object
	// Frame carries pixel data for frame-consuming services. Co-located
	// callers pass the stored frame directly (zero copy); remote callers'
	// frames arrive decoded by the transport layer.
	Frame *frame.Frame
}

// Response is one service invocation's output.
type Response struct {
	// Result carries the named results as script values. The caller owns
	// the map and its values from the moment the handler returns, so a
	// handler shares no array or object in it with another call's result,
	// and takes the map itself from result (the standard handlers) or
	// makes a fresh one. A caller that has copied the values out — a
	// co-located module's call_service into its result object, the server
	// into the reply's JSON — may hand the map back with RecycleResult; a
	// caller that never does simply leaves it to the collector.
	Result map[string]script.Value
	// Frame carries pixel output for frame-producing services (display).
	Frame *frame.Frame
}

// resultMaps holds cleared Result maps for the next result call, up to its
// capacity; the rest go to the collector.
var resultMaps = make(chan map[string]script.Value, 64)

// maxRecycledResult is the largest Result map kept: every standard handler's
// result fits.
const maxRecycledResult = 8

// result returns a Result map holding the key, value pairs, recycled when
// one is free.
func result(kv ...script.Value) map[string]script.Value {
	var m map[string]script.Value
	select {
	case m = <-resultMaps:
	default:
		m = make(map[string]script.Value, 4)
	}
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i].(string)] = kv[i+1]
	}
	return m
}

// RecycleResult clears a Response.Result its caller is done with and keeps
// it for a later call's result. Nothing else may still hold the map. A map
// that held more than maxRecycledResult entries goes to the collector, as
// clear keeps its buckets and the small results would carry them on.
func RecycleResult(m map[string]script.Value) {
	if m == nil || len(m) > maxRecycledResult {
		return
	}
	clear(m)
	select {
	case resultMaps <- m:
	default:
	}
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
	// Handler is the implementation.
	Handler Handler

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

// ---- argument helpers shared by the standard services ----

// argString extracts a string argument.
func argString(args *script.Object, key string) (string, bool) {
	s, ok := args.Get(key).(string)
	return s, ok
}
